// Command sbd-load is the open-loop load generator for cmd/sbd-serve.
// Arrivals are scheduled by a clock (Poisson or fixed-interval at a
// configurable rate), not by request completion, so a saturated server
// shows up as queueing delay in the latency histogram instead of
// silently throttling the offered load. Requests spread over -conns
// persistent connections (one session per connection, carts stay
// session-private) with a Zipfian item skew that concentrates checkouts
// on hot inventory rows.
//
// Each -rates cell runs for -duration, records per-request latency into
// an HDR-style histogram, scrapes the server's /stats JSON before and
// after (runtime counters: aborts, contention, slot-lease waits, bias),
// and reports p50/p99/p999/max, achieved txns/s, and error counts.
// Recorded, repeatable serving numbers come from benchmark/ (bash
// benchmark/run.sh --workload serve-mixed), not from this tool.
//
// -spawn boots a sbd-serve binary first, drives it, then SIGTERMs it
// and verifies the drain was clean; with -smoke the whole run becomes a
// CI gate: any request error, non-2xx response, dropped arrival, empty
// histogram, or unclean shutdown fails the process.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/minihttp"
	"repro/internal/stm"
)

var (
	addrFlag  = flag.String("addr", "", "shop address of an already-running server")
	statsFlag = flag.String("stats", "", "observability address of that server (optional)")
	spawn     = flag.String("spawn", "", "path to a sbd-serve binary to boot, drive, and drain")
	conns     = flag.Int("conns", 64, "concurrent persistent connections (one session each)")
	rates     = flag.String("rates", "400", "comma-separated arrival rates (requests/second), one cell each")
	duration  = flag.Duration("duration", 5*time.Second, "duration of each rate cell")
	dist      = flag.String("dist", "poisson", "arrival process: poisson or fixed")
	seed      = flag.Int64("seed", 1, "PRNG seed (schedule and key choice are deterministic per seed)")
	zipfS     = flag.Float64("zipf", 1.2, "Zipfian item-skew exponent (<=1 uniform)")
	items     = flag.Int("items", 24, "catalog size (must match the server)")
	mixFlag   = flag.String("mix", "70,20,10", "browse,add,checkout weights")
	smoke     = flag.Bool("smoke", false, "fail on any error, non-2xx, empty histogram, or unclean shutdown")
)

// scrapeStats decodes the obs /stats JSON endpoint, whose keys are the
// exported fields of stm.StatsSnapshot.
func scrapeStats(addr string) (stm.StatsSnapshot, error) {
	var s stm.StatsSnapshot
	if addr == "" {
		return s, nil
	}
	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// clientConn is one persistent connection with its deterministic
// request stream.
type clientConn struct {
	conn    net.Conn
	rd      *bufio.Reader
	session int64
	keys    *loadgen.KeyPicker
	dead    bool
}

func dialConns(addr string, n int, seed int64, items int, zipf float64) ([]*clientConn, error) {
	out := make([]*clientConn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			for _, cc := range out {
				cc.conn.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		out = append(out, &clientConn{
			conn:    c,
			rd:      bufio.NewReader(c),
			session: int64(i + 1),
			keys:    loadgen.NewKeyPicker(items, zipf, seed+int64(i)*7919),
		})
	}
	return out, nil
}

// request issues one mixed request and returns the response status.
func (cc *clientConn) request(mix [3]int) (int, error) {
	item := strconv.Itoa(cc.keys.Pick())
	sess := strconv.FormatInt(cc.session, 10)
	var line string
	switch pick := cc.keys.Intn(mix[0] + mix[1] + mix[2]); {
	case pick < mix[0]:
		line = minihttp.FormatRequest("GET", "/browse", map[string]string{"item": item})
	case pick < mix[0]+mix[1]:
		qty := strconv.Itoa(cc.keys.Intn(3) + 1)
		line = minihttp.FormatRequest("GET", "/add", map[string]string{
			"session": sess, "item": item, "qty": qty,
		})
	default:
		line = minihttp.FormatRequest("GET", "/checkout", map[string]string{"session": sess})
	}
	if _, err := cc.conn.Write([]byte(line)); err != nil {
		return 0, err
	}
	header, err := cc.rd.ReadString('\n')
	if err != nil {
		return 0, err
	}
	status, length, err := minihttp.ParseResponseHeader(strings.TrimSuffix(header, "\n"))
	if err != nil {
		return 0, err
	}
	if _, err := io.CopyN(io.Discard, cc.rd, int64(length)); err != nil {
		return 0, err
	}
	return status, nil
}

type cellResult struct {
	offered    float64
	ops        uint64
	errors     uint64
	non2xx     uint64
	dropped    uint64
	elapsed    time.Duration
	hist       *loadgen.Hist
	stats      stm.StatsSnapshot
	statsValid bool
}

func runCell(cs []*clientConn, mix [3]int, rate float64, d loadgen.Dist,
	dur time.Duration, cellSeed int64, statsAddr string) cellResult {
	res := cellResult{offered: rate, hist: &loadgen.Hist{}}
	before, errBefore := scrapeStats(statsAddr)

	tokens := make(chan time.Time, 1<<16)
	var ops, errs, non2xx, dropped atomic.Uint64
	var wg sync.WaitGroup
	for _, cc := range cs {
		wg.Add(1)
		go func(cc *clientConn) {
			defer wg.Done()
			for at := range tokens {
				if cc.dead {
					errs.Add(1)
					continue
				}
				status, err := cc.request(mix)
				if err != nil {
					cc.dead = true
					errs.Add(1)
					continue
				}
				res.hist.Record(time.Since(at))
				if status < 200 || status > 299 {
					non2xx.Add(1)
				} else {
					ops.Add(1)
				}
			}
		}(cc)
	}

	pacer := loadgen.NewPacer(rate, d, cellSeed)
	start := time.Now()
	for {
		at := pacer.Next()
		if at > dur {
			break
		}
		if wait := at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case tokens <- start.Add(at):
		default:
			dropped.Add(1) // arrival queue overflow: the run is far past saturation
		}
	}
	close(tokens)
	wg.Wait()
	res.elapsed = time.Since(start)
	res.ops, res.errors = ops.Load(), errs.Load()
	res.non2xx, res.dropped = non2xx.Load(), dropped.Load()
	if after, errAfter := scrapeStats(statsAddr); statsAddr != "" && errBefore == nil && errAfter == nil {
		res.stats = after.Sub(before)
		res.statsValid = true
	}
	return res
}

// spawnServe boots the server binary and returns its shop and obs
// addresses plus a shutdown function that SIGTERMs it and verifies the
// drain, returning the full captured output on failure.
func spawnServe(bin string, nItems int) (shopAddr, statsAddr string, shutdown func() error, err error) {
	cmd := exec.Command(bin,
		"-addr=127.0.0.1:0", "-obs=127.0.0.1:0", "-items="+strconv.Itoa(nItems))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", "", nil, err
	}

	var mu sync.Mutex
	var output strings.Builder
	addrCh := make(chan [2]string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		var shop, stats string
		announced := false
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			output.WriteString(line + "\n")
			mu.Unlock()
			if a, ok := strings.CutPrefix(line, "sbd-serve: listening on "); ok {
				shop = a
			}
			if a, ok := strings.CutPrefix(line, "sbd-serve: metrics on "); ok {
				stats = a
			}
			if !announced && shop != "" && stats != "" {
				announced = true
				addrCh <- [2]string{shop, stats}
			}
		}
	}()

	select {
	case addrs := <-addrCh:
		shopAddr, statsAddr = addrs[0], addrs[1]
	case <-time.After(10 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		return "", "", nil, fmt.Errorf("server did not announce its addresses within 10s")
	}

	shutdown = func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("signal server: %w", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case werr := <-done:
			mu.Lock()
			out := output.String()
			mu.Unlock()
			if werr != nil {
				return fmt.Errorf("server exited uncleanly: %v\n%s", werr, out)
			}
			if !strings.Contains(out, "drained cleanly") {
				return fmt.Errorf("server exited without 'drained cleanly':\n%s", out)
			}
			return nil
		case <-time.After(15 * time.Second):
			cmd.Process.Kill() //nolint:errcheck
			return fmt.Errorf("server did not exit within 15s of SIGTERM")
		}
	}
	return shopAddr, statsAddr, shutdown, nil
}

func parseMix(s string) ([3]int, error) {
	parts := strings.Split(s, ",")
	var mix [3]int
	if len(parts) != 3 {
		return mix, fmt.Errorf("want browse,add,checkout weights, got %q", s)
	}
	sum := 0
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return mix, fmt.Errorf("bad weight %q", p)
		}
		mix[i] = n
		sum += n
	}
	if sum == 0 {
		return mix, fmt.Errorf("all weights zero")
	}
	return mix, nil
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sbd-load: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	flag.Parse()
	mix, err := parseMix(*mixFlag)
	if err != nil {
		fail("-mix: %v", err)
	}
	rateList, err := parseRates(*rates)
	if err != nil {
		fail("-rates: %v", err)
	}
	d := loadgen.Dist(*dist)
	if d != loadgen.Poisson && d != loadgen.Fixed {
		fail("-dist must be poisson or fixed")
	}

	shopAddr, statsAddr := *addrFlag, *statsFlag
	var shutdown func() error
	if *spawn != "" {
		shopAddr, statsAddr, shutdown, err = spawnServe(*spawn, *items)
		if err != nil {
			fail("-spawn: %v", err)
		}
		fmt.Printf("spawned %s: shop %s, stats %s\n", *spawn, shopAddr, statsAddr)
	}
	if shopAddr == "" {
		fail("need -addr or -spawn")
	}

	cs, err := dialConns(shopAddr, *conns, *seed, *items, *zipfS)
	if err != nil {
		fail("%v", err)
	}

	tbl := harness.NewTable("Rate", "Txns/s", "Ops", "Err", "p50", "p99", "p999", "max", "Abr", "Con", "SlotWait", "Invis", "VAbr")
	smokeFailures := []string{}
	for i, rate := range rateList {
		res := runCell(cs, mix, rate, d, *duration, *seed+int64(i)*104729, statsAddr)
		achieved := float64(res.ops) / res.elapsed.Seconds()
		tbl.Row(fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.0f", achieved),
			res.ops, res.errors+res.non2xx+res.dropped,
			res.hist.Quantile(0.50).Round(time.Microsecond).String(),
			res.hist.Quantile(0.99).Round(time.Microsecond).String(),
			res.hist.Quantile(0.999).Round(time.Microsecond).String(),
			res.hist.Max().Round(time.Microsecond).String(),
			res.stats.Aborts, res.stats.Contended,
			time.Duration(res.stats.SlotWaitNs).Round(time.Microsecond).String(),
			res.stats.InvisReads, res.stats.ValidationAborts)
		if *smoke {
			if n := res.errors; n > 0 {
				smokeFailures = append(smokeFailures, fmt.Sprintf("rate %.0f: %d request errors", rate, n))
			}
			if n := res.non2xx; n > 0 {
				smokeFailures = append(smokeFailures, fmt.Sprintf("rate %.0f: %d non-2xx responses", rate, n))
			}
			if n := res.dropped; n > 0 {
				smokeFailures = append(smokeFailures, fmt.Sprintf("rate %.0f: %d dropped arrivals", rate, n))
			}
			if res.hist.Count() == 0 {
				smokeFailures = append(smokeFailures, fmt.Sprintf("rate %.0f: empty latency histogram", rate))
			} else if res.hist.Quantile(0.5) <= 0 || res.hist.Quantile(0.999) <= 0 {
				smokeFailures = append(smokeFailures, fmt.Sprintf("rate %.0f: zero latency percentile", rate))
			}
			if res.ops == 0 || achieved <= 0 {
				smokeFailures = append(smokeFailures, fmt.Sprintf("rate %.0f: zero throughput", rate))
			}
			if statsAddr != "" && !res.statsValid {
				smokeFailures = append(smokeFailures, fmt.Sprintf("rate %.0f: stats scrape failed", rate))
			}
			if n := res.stats.ValidationAborts; *zipfS <= 1 && n > 0 {
				// Uniform keys barely conflict: an invisible read that still
				// failed validation means the adaptive tier turned optimism
				// on where it loses — a false-optimism regression, not load.
				smokeFailures = append(smokeFailures, fmt.Sprintf("rate %.0f: %d validation aborts on uniform keys", rate, n))
			}
		}
	}
	fmt.Printf("Open-loop serving — %d conns, %s arrivals, zipf=%.2f, mix=%s, %v per cell\n",
		*conns, d, *zipfS, *mixFlag, *duration)
	fmt.Print(tbl.String())

	for _, cc := range cs {
		cc.conn.Close()
	}
	if shutdown != nil {
		if err := shutdown(); err != nil {
			if *smoke {
				smokeFailures = append(smokeFailures, fmt.Sprintf("unclean shutdown: %v", err))
			} else {
				fmt.Fprintf(os.Stderr, "sbd-load: warning: %v\n", err)
			}
		} else {
			fmt.Println("server drained cleanly on SIGTERM")
		}
	}

	if *smoke {
		if len(smokeFailures) > 0 {
			for _, f := range smokeFailures {
				fmt.Fprintf(os.Stderr, "sbd-load: smoke: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Println("SMOKE PASS")
	}
}
