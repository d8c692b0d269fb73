package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stm"
)

// Constants of the serve-* workloads.
const (
	// openLoopRate is the open-loop arrival rate over all connections:
	// 36-38% of the closed-loop capacity the seed commit showed on the
	// pipeline machine (34-36 k req/s, README.md "Seed baseline"). Above
	// that the median latency of serve-checkout stops repeating from run
	// to run. It is a constant of the benchmark, not a setting.
	openLoopRate = 13000.0
	// connsPerCore sizes the generator: 4 x nproc connections, one session
	// each. With nproc connections a closed loop leaves the server idle
	// while each reply travels, and its rate measures how fast an idle
	// virtual CPU wakes (on the pipeline machine: 24-41 k req/s from one
	// half-second to the next) rather than what the server can do; with
	// four times as many there is always a request waiting.
	connsPerCore = 4
	warmUp       = time.Second
	setupRepeats = 9
	// window is the slice of the closed-loop phase that sat_rps and
	// cpu_us_per_req are taken over; the phase reports the median window,
	// so a disturbance of a second does not move the run's figure.
	window = 500 * time.Millisecond
	// Shares of -seconds. Untraced run: open loop, then closed loop.
	openShare = 2.0 / 3
	// Traced run: a shorter untraced run against cmd/sbd-serve for the
	// scraped metrics, then the benchmark's own span-carrying server,
	// closed loop, with spans off and with spans on.
	tracedServeShare = 0.4
	tracedPlainShare = 0.2
	tracedSpansShare = 0.4
)

type serveSpec struct {
	name   string
	stream func(seed int64, session int) func() request
}

var serveSpecs = map[string]serveSpec{
	"serve-mixed": {"serve-mixed", func(seed int64, session int) func() request {
		return mixedStream(seed*1000003 + int64(session)*7919)
	}},
	"serve-checkout": {"serve-checkout", func(_ int64, session int) func() request {
		return checkoutStream(session)
	}},
}

// fleet is the generator: one client per connection.
type fleet struct {
	clients []*client
	pacers  []*pacer
}

func dialFleet(addr string, spec serveSpec, seed int64, conns int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < conns; i++ {
		session := i + 1
		c, err := dialClient(addr, session, spec.stream(seed, session))
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
		f.pacers = append(f.pacers, newPacer(openLoopRate/float64(conns), seed*999983+int64(session)))
	}
	return f, nil
}

func (f *fleet) close() {
	for _, c := range f.clients {
		c.close()
	}
}

// each runs fn for every client concurrently and merges the phases.
func (f *fleet) each(fn func(i int, c *client) phase) phase {
	parts := make([]phase, len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = fn(i, c)
		}()
	}
	wg.Wait()
	var all phase
	for _, p := range parts {
		all.sent += p.sent
		all.failed += p.failed
		all.dropped += p.dropped
		all.latNs = append(all.latNs, p.latNs...)
		all.lagNs = append(all.lagNs, p.lagNs...)
		all.doneNs = append(all.doneNs, p.doneNs...)
		all.elapsed = max(all.elapsed, p.elapsed)
	}
	return all
}

// sorted sorts each of the phase's sample lists, for quantiles.
func (ph phase) sorted() phase {
	sort.Float64s(ph.latNs)
	sort.Float64s(ph.lagNs)
	sort.Float64s(ph.doneNs)
	return ph
}

func (f *fleet) closedLoop(start time.Time, d time.Duration) phase {
	return f.each(func(_ int, c *client) phase { return c.closedLoop(start, start.Add(d)) }).sorted()
}

func (f *fleet) openLoop(d time.Duration) phase {
	start := time.Now()
	return f.each(func(i int, c *client) phase { return c.openLoop(start, d, f.pacers[i]) }).sorted()
}

func (f *fleet) firstErr() error {
	for _, c := range f.clients {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

// verifyStock asks for every item's stock over the first connection and
// checks it against the sessions' tallies. It returns the number of
// /stock requests made and the problems found.
func (f *fleet) verifyStock() (requests int, problems []string) {
	c := f.clients[0]
	available := make([]int64, shopItems)
	sold := make([]int64, shopItems)
	for item := 0; item < shopItems; item++ {
		requests++
		body, err := c.roundTrip(request{op: opStock, item: item})
		if err != nil {
			return requests, []string{fmt.Sprintf("GET /stock?item=%d: %v", item, err)}
		}
		a, s, ok := strings.Cut(strings.TrimSpace(string(body)), " ")
		var err1, err2 error
		available[item], err1 = strconv.ParseInt(a, 10, 64)
		sold[item], err2 = strconv.ParseInt(s, 10, 64)
		if !ok || err1 != nil || err2 != nil {
			return requests, []string{fmt.Sprintf("GET /stock?item=%d: unparsable reply %q", item, body)}
		}
	}
	tallies := make([]*tally, len(f.clients))
	for i, c := range f.clients {
		tallies[i] = c.tally
	}
	return requests, stockMismatches(available, sold, tallies)
}

func (f *fleet) orders() int64 {
	var n int64
	for _, c := range f.clients {
		n += c.tally.orders
	}
	return n
}

// firstReply connects and asks for /healthz; a 2xx reply is the end of a
// server's set-up.
func firstReply(addr string) error {
	c, err := dialClient(addr, 0, nil)
	if err != nil {
		return err
	}
	defer c.close()
	if !c.do(request{op: opHealth}) {
		return c.firstErr
	}
	return nil
}

// spawnReady spawns cmd/sbd-serve and returns it once it has answered
// one request, with the time that took: one sample of setup_s.
func spawnReady(bin string, res *result) (*server, float64, error) {
	srv, err := spawnServer(bin)
	if err != nil {
		return nil, 0, err
	}
	if err := firstReply(srv.shopAddr); err != nil {
		srv.kill()
		return nil, 0, fmt.Errorf("first request: %w", err)
	}
	res.attempted++
	return srv, time.Since(srv.spawned).Seconds(), nil
}

// spareSetups takes n more samples of the set-up time from servers that
// are stopped again at once.
func spareSetups(bin string, n int, res *result) ([]float64, error) {
	var times []float64
	for range n {
		srv, t, err := spawnReady(bin, res)
		if err != nil {
			return nil, err
		}
		times = append(times, t)
		// sbd-serve installs its SIGTERM handler just after it announces its
		// addresses; a signal inside that window kills it undrained.
		time.Sleep(20 * time.Millisecond)
		served, _, err := srv.stop()
		if err != nil {
			return nil, err
		}
		if served != 1 {
			return nil, fmt.Errorf("set-up server served %d requests, sent 1", served)
		}
	}
	return times, nil
}

// driven is what driving one server through its phases measured.
type driven struct {
	open, closed phase             // sorted latencies; open is empty when the open loop was skipped
	rps          []float64         // per window of the closed loop: replies per second
	cpuUs        []float64         // per window of the closed loop: server CPU per reply
	rssMB        float64           // server peak resident memory
	stats        stm.StatsSnapshot // obs-port counter delta over both phases
	scrapeMs     float64           // one /metrics GET in the middle of the closed-loop phase
	scrapeBytes  float64
	output       string // everything the server printed
}

// drive sends spec's traffic to srv, which has answered `before`
// requests already: warm-up, open loop for openDur (skipped when 0),
// closed loop for closedDur, then the output checks (every reply
// against the session tallies as it arrives; afterwards stock against
// tallies, the server's served and orders counts against the
// generator's, and a clean drain on SIGTERM). Failed checks go to res;
// an error means the run could not be measured at all.
func drive(srv *server, before int, spec serveSpec, cfg config, openDur, closedDur time.Duration, scrape bool, res *result) (*driven, error) {
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()
	pid := srv.cmd.Process.Pid
	f, err := dialFleet(srv.shopAddr, spec, cfg.seed, cfg.nproc*connsPerCore)
	if err != nil {
		return nil, err
	}
	defer f.close()

	d := &driven{}
	warm := f.closedLoop(time.Now(), warmUp)
	statsBefore, err := srv.scrapeStats()
	if err != nil {
		return nil, fmt.Errorf("scrape /stats: %w", err)
	}
	if openDur > 0 {
		d.open = f.openLoop(openDur)
	}
	// The closed loop, with the server's CPU time sampled at every window
	// boundary.
	start := time.Now()
	type cpuSample struct {
		atNs float64
		cpu  time.Duration
	}
	samples := make([]cpuSample, 0, int(closedDur/window)+1)
	var sampleErr, scrapeErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 0; k <= int(closedDur/window); k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * window)))
			cpu, err := procCPU(pid)
			if err != nil {
				sampleErr = err
				return
			}
			samples = append(samples, cpuSample{float64(time.Since(start)), cpu})
		}
	}()
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		if !scrape {
			return
		}
		time.Sleep(closedDur / 2)
		t0 := time.Now()
		body, err := httpGet(srv.obsAddr, "/metrics")
		d.scrapeMs, d.scrapeBytes, scrapeErr = float64(time.Since(t0))/1e6, float64(len(body)), err
	}()
	d.closed = f.closedLoop(start, closedDur)
	<-sampled
	if sampleErr != nil {
		return nil, sampleErr
	}
	for k := 1; k < len(samples); k++ {
		from, to := samples[k-1], samples[k]
		replies := float64(sort.SearchFloat64s(d.closed.doneNs, to.atNs) - sort.SearchFloat64s(d.closed.doneNs, from.atNs))
		d.rps = append(d.rps, replies/((to.atNs-from.atNs)/1e9))
		d.cpuUs = append(d.cpuUs, ratio(float64(to.cpu-from.cpu)/1e3, replies))
	}
	<-scraped
	if scrapeErr != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", scrapeErr)
	}
	statsAfter, err := srv.scrapeStats()
	if err != nil {
		return nil, fmt.Errorf("scrape /stats: %w", err)
	}
	d.stats = statsAfter.Sub(statsBefore)

	stockRequests, mismatches := f.verifyStock()
	if d.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	f.close()
	served, orders, stopErr := srv.stop()
	stopped = true
	d.output = srv.captured()

	sent := warm.sent + d.open.sent + d.closed.sent + stockRequests
	failed := warm.failed + d.open.failed + d.closed.failed
	res.attempted += sent + d.open.dropped
	res.failed += failed + d.open.dropped + len(mismatches)
	if e := f.firstErr(); e != nil {
		res.problem("request failed: %v", e)
	}
	if d.open.dropped > 0 {
		res.problem("%d arrivals dropped: the open-loop backlog outlived the phase by %v", d.open.dropped, backlogGrace)
	}
	for _, m := range mismatches {
		res.problem("%s", m)
	}
	switch {
	case stopErr != nil:
		res.failed++
		res.problem("%v", stopErr)
	case served != int64(before+sent-failed):
		res.failed++
		res.problem("server served %d requests, generator got %d replies", served, before+sent-failed)
	case orders != f.orders():
		res.failed++
		res.problem("server placed %d orders, sessions placed %d", orders, f.orders())
	}
	if len(d.closed.latNs) == 0 || (openDur > 0 && len(d.open.latNs) == 0) {
		return nil, fmt.Errorf("a phase completed no request: %v", f.firstErr())
	}
	return d, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runServe runs a serve-* workload against cmd/sbd-serve for about secs
// and records its end-to-end figures; with scrape set, also the
// obs-port scrape and the stm counters per request, which belong to the
// traced run's list.
func runServe(spec serveSpec, cfg config, secs float64, scrape bool, res *result) error {
	openDur := seconds(secs * openShare)
	closedDur := seconds(secs) - openDur
	res.constant("open_loop_rate_rps", openLoopRate)
	res.constant("open_loop_s", openDur.Seconds())
	res.constant("closed_loop_s", closedDur.Seconds())
	res.constant("warm_up_s", warmUp.Seconds())
	res.constant("window_s", window.Seconds())
	res.constant("connections", cfg.nproc*connsPerCore)
	res.constant("items", shopItems)

	setups, err := spareSetups(cfg.serveBin, setupRepeats-1, res)
	if err != nil {
		return err
	}
	srv, t, err := spawnReady(cfg.serveBin, res)
	if err != nil {
		return err
	}
	setups = append(setups, t)
	res.set("setup_s", median(setups))
	res.cell("setup_s", setups)
	d, err := drive(srv, 1, spec, cfg, openDur, closedDur, scrape, res)
	if err != nil {
		return err
	}

	res.set("sat_rps", median(d.rps))
	res.cell("sat_rps", d.rps)
	res.set("cpu_us_per_req", median(d.cpuUs))
	res.cell("cpu_us_per_req", d.cpuUs)
	res.set("p50_ms", quantile(d.open.latNs, 0.50)/1e6)
	res.set("p99_ms", quantile(d.open.latNs, 0.99)/1e6)
	res.sample("p50_ms", len(d.open.latNs))
	res.sample("p99_ms", len(d.open.latNs))
	if q := highestQuantile(len(d.open.latNs)); q > 0 {
		res.constant("tail_quantile", q)
		res.set("tail_ms", quantile(d.open.latNs, q)/1e6)
	}
	res.set("peak_rss_mb", d.rssMB)
	// The end-to-end names every workload reports (README.md).
	res.set("throughput", res.values["sat_rps"])
	res.set("cpu_us_per_op", res.values["cpu_us_per_req"])

	// Generator health: how late the generator itself was.
	res.set("loadgen.lag_p50_us", quantile(d.open.lagNs, 0.50)/1e3)
	res.set("loadgen.lag_p99_us", quantile(d.open.lagNs, 0.99)/1e3)
	res.set("loadgen.offered_rps", float64(d.open.sent+d.open.dropped)/openDur.Seconds())
	res.set("loadgen.dropped", float64(d.open.dropped))
	res.set("loadgen.rtt_p50_us", quantile(d.closed.latNs, 0.50)/1e3)
	res.set("loadgen.rtt_p99_us", quantile(d.closed.latNs, 0.99)/1e3)
	res.sample("loadgen.rtt_p99_us", len(d.closed.latNs))
	if lag, p50 := res.values["loadgen.lag_p50_us"], res.values["p50_ms"]*1e3; lag > p50/4 {
		res.invalid = append(res.invalid, fmt.Sprintf(
			"generator lag p50 %.1fus exceeds a quarter of the latency p50 %.1fus: p50_ms measures the generator", lag, p50))
	}
	if scrape {
		stmPerRequest(d.stats, float64(len(d.open.latNs)+len(d.closed.latNs)), res)
		res.set("obs.metrics_scrape_ms", d.scrapeMs)
		res.set("obs.metrics_bytes", d.scrapeBytes)
	}
	return nil
}

// stmPerRequest reports the serve-* per-layer stm.* figures from a
// counter delta over n requests.
func stmPerRequest(d stm.StatsSnapshot, n float64, res *result) {
	per := func(name string, v uint64) { res.set(name, float64(v)/n) }
	perK := func(name string, v uint64) { res.set(name, 1000*float64(v)/n) }
	per("stm.acquire_per_req", d.Acquire)
	per("stm.check_owned_per_req", d.CheckOwned)
	per("stm.check_new_per_req", d.CheckNew)
	perK("stm.aborts_per_kreq", d.Aborts)
	perK("stm.contended_per_kreq", d.Contended)
	perK("stm.casfail_per_kreq", d.CASFail)
	res.set("stm.deadlocks", float64(d.Deadlocks))
	per("stm.invis_reads_per_req", d.InvisReads)
	perK("stm.validation_aborts_per_kreq", d.ValidationAborts)
	res.set("stm.slot_wait_us_per_req", float64(d.SlotWaitNs)/1e3/n)
	res.set("stm.mode_flips", float64(d.ModeFlips))
	per("stm.bias_grants_per_req", d.BiasGrants)
	perK("stm.promotions_per_kreq", d.Promotions)
}

// runServeTraced gives a serve-* workload's per-layer figures. A short
// run against cmd/sbd-serve supplies what is scraped from outside (obs
// port, generator health). Then the same traffic runs closed loop
// against the benchmark's span server, once with spans off and once with
// spans on: the gap between those two is the tracing overhead, and the
// spans give each layer's self time per request.
func runServeTraced(spec serveSpec, cfg config, secs float64, res *result) error {
	if err := runServe(spec, cfg, secs*tracedServeShare, true, res); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	spanRun := func(spans string, share float64) (float64, map[string]float64, error) {
		srv, err := spawnServer(self, "-span-server="+spans, "-workload="+spec.name, "-out="+cfg.outDir)
		if err != nil {
			return 0, nil, err
		}
		d, err := drive(srv, 0, spec, cfg, 0, seconds(secs*share), false, res)
		if err != nil {
			return 0, nil, err
		}
		layers := map[string]float64{}
		for _, line := range strings.Split(d.output, "\n") {
			if data, ok := strings.CutPrefix(line, layersPrefix); ok {
				if err := json.Unmarshal([]byte(data), &layers); err != nil {
					return 0, nil, fmt.Errorf("span server's layer figures: %w", err)
				}
			}
		}
		return median(d.rps), layers, nil
	}
	plainRPS, _, err := spanRun("off", tracedPlainShare)
	if err != nil {
		return err
	}
	tracedRPS, layers, err := spanRun("on", tracedSpansShare)
	if err != nil {
		return err
	}
	if len(layers) == 0 {
		return fmt.Errorf("span server printed no layer figures")
	}
	for name, v := range layers {
		res.set(name, v)
	}
	res.constant("span_server_untraced_s", secs*tracedPlainShare)
	res.constant("span_server_traced_s", secs*tracedSpansShare)
	res.constant("trace_file", traceFile(cfg.outDir, spec.name))
	res.set("span_server.untraced_rps", plainRPS)
	res.set("span_server.traced_rps", tracedRPS)
	res.set("benchmark.trace_overhead_pct", 100*(plainRPS-tracedRPS)/plainRPS)
	opNs, err := probeMemdb()
	if err != nil {
		return err
	}
	res.set("memdb.op_ns", opNs)
	return nil
}
