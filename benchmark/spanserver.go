package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/memdb"
	"repro/internal/minihttp"
	"repro/internal/obs"
	"repro/internal/shop"
	"repro/internal/stm"
	"repro/internal/txio"
)

// The span server is the shop served by the benchmark's own copy of
// cmd/sbd-serve's accept loop and shop.ServeConn, re-stated from public
// calls so that a span can sit around each call into a layer. The traced
// run spawns it as a child process (benchmark -span-server=on|off) and
// drives it exactly like cmd/sbd-serve; it speaks the same start-up and
// shutdown lines, and on shutdown also prints its per-layer figures.

// Span kinds of the serving loop, named layer.call.
var (
	spSuspend  = newSpanKind("core.suspend")
	spWait     = newSpanKind("minihttp.wait")
	spSockRead = newSpanKind("minihttp.sock_read")
	spAtomic   = newSpanKind("core.atomic")
	spReadLine = newSpanKind("txio.readline")
	spParse    = newSpanKind("minihttp.parse")
	spBrowse   = newSpanKind("shop.browse")
	spAdd      = newSpanKind("shop.add")
	spCheckout = newSpanKind("shop.checkout")
	spOther    = newSpanKind("shop.other")
	spFormat   = newSpanKind("minihttp.format")
	spWrite    = newSpanKind("txio.write")
	spSplit    = newSpanKind("core.split")
	spFlush    = newSpanKind("txio.flush")
)

// spanCapacity is the span storage reserved per connection up front
// (64 MB of address space, touched only as far as it fills): ten times
// what a connection records in a traced run of 25 s.
const spanCapacity = 2 << 20

// layersPrefix starts the line on which the span server prints its
// per-layer figures, a JSON object of metric name to value.
const layersPrefix = "benchmark: layers "

type spanServer struct {
	rt       *core.Runtime
	sh       *shop.Shop
	ln       net.Listener
	done     chan struct{}
	spans    bool
	epoch    time.Time
	draining atomic.Bool

	mu    sync.Mutex
	conns map[*minihttp.NetConn]struct{}
	loops []*connLoop
}

// connLoop is the per-connection state of the serving loop.
type connLoop struct {
	tr       *tracer // nil with spans off
	requests int     // requests answered
	runs     int     // executions of the request body; runs - requests = replays
	non2xx   int
}

// spanConn spans the raw socket calls the layers above make.
type spanConn struct {
	net.Conn
	tr *tracer
}

func (c *spanConn) Read(p []byte) (int, error) {
	c.tr.begin(spSockRead)
	n, err := c.Conn.Read(p)
	c.tr.end()
	return n, err
}

func (c *spanConn) Write(p []byte) (int, error) {
	c.tr.begin(spFlush)
	n, err := c.Conn.Write(p)
	c.tr.end()
	return n, err
}

// start is shop.Server.Start: the runtime's main thread accepts, every
// connection gets an SBD thread.
func (s *spanServer) start() {
	go func() {
		defer close(s.done)
		s.rt.Main(func(th *core.Thread) {
			for id := 0; ; id++ {
				var c net.Conn
				var aerr error
				th.Suspend(func() { c, aerr = s.ln.Accept() })
				if aerr != nil {
					return
				}
				loop := &connLoop{}
				if s.spans {
					var err error
					if loop.tr, err = newTracer(id, s.epoch, spanCapacity); err != nil {
						panic(err) // fails the span server; the parent reports its exit
					}
				}
				nc := minihttp.NewNetConn(&spanConn{Conn: c, tr: loop.tr})
				s.mu.Lock()
				s.conns[nc] = struct{}{}
				s.loops = append(s.loops, loop)
				s.mu.Unlock()
				slot := (id + 1) % s.sh.StatSlots()
				th.Go("conn", func(w *core.Thread) {
					defer func() {
						s.mu.Lock()
						delete(s.conns, nc)
						s.mu.Unlock()
					}()
					s.serveConn(w, nc, slot, loop)
				})
				th.Split()
			}
		})
	}()
}

// serveConn is shop.ServeConn with spans: same calls, same order.
func (s *spanServer) serveConn(w *core.Thread, conn *minihttp.NetConn, slot int, loop *connLoop) {
	defer conn.Close()
	tr := loop.tr
	tc := txio.NewConn(conn)
	for {
		readable := false
		tr.begin(spSuspend)
		w.Suspend(func() {
			tr.begin(spWait)
			readable = tc.HasReplay() || conn.WaitReadable()
			tr.end()
		})
		tr.end()
		if !readable {
			return
		}
		closed := false
		tr.begin(spAtomic)
		w.Atomic(func(tx *stm.Tx) {
			tr.unwindTo(spAtomic, spSplit) // a replay starts over: end what the aborted attempt left open
			loop.runs++
			tr.begin(spReadLine)
			line, readErr := tc.ReadLine(tx)
			tr.end()
			if readErr != nil {
				closed = true
				return
			}
			var status int
			var body string
			tr.begin(spParse)
			req, err := minihttp.ParseRequest(line)
			tr.end()
			if err != nil {
				status, body, closed = 400, err.Error()+"\n", true
			} else {
				tr.begin(handlerKind(req.Path))
				status, body = s.sh.Handle(tx, req, slot)
				tr.end()
			}
			tr.begin(spFormat)
			out := minihttp.FormatResponse(status, body)
			tr.end()
			tr.begin(spWrite)
			tc.WriteString(tx, out) //nolint:errcheck // buffered until commit, cannot fail
			tr.end()
			if status < 200 || status > 299 {
				loop.non2xx++
			}
		})
		tr.end()
		tr.begin(spSplit)
		w.Split()
		tr.end()
		if closed || s.draining.Load() {
			return
		}
		loop.requests++
		tr.nextRequest()
	}
}

func handlerKind(path string) spanKind {
	switch path {
	case "/browse":
		return spBrowse
	case "/add":
		return spAdd
	case "/checkout":
		return spCheckout
	}
	return spOther
}

// drain is shop.Server.Drain: stop accepting, let connections finish,
// force-close what is still open after grace.
func (s *spanServer) drain(grace time.Duration) (forced int, err error) {
	s.draining.Store(true)
	s.ln.Close()
	active := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns)
	}
	for deadline := time.Now().Add(grace); active() > 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.Lock()
	for nc := range s.conns {
		forced++
		nc.Close()
	}
	s.mu.Unlock()
	select {
	case <-s.done:
		return forced, nil
	case <-time.After(grace):
		return forced, fmt.Errorf("span server did not quiesce within %v after drain", grace)
	}
}

// spanServerMain is the child process: cmd/sbd-serve's main with the
// span-carrying loop. It returns the process exit code.
func spanServerMain(spans bool, workload, outDir string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "benchmark: span server: %v\n", err)
		return 1
	}
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: shopItems, Stock: shopStock})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	s := &spanServer{
		rt: rt, sh: sh, ln: ln, done: make(chan struct{}),
		spans: spans, epoch: time.Now(), conns: map[*minihttp.NetConn]struct{}{},
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	s.start()
	fmt.Printf("sbd-serve: listening on %s\n", ln.Addr())
	obsAddr, err := obs.NewServer(rt.STM()).ServeTCP("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	fmt.Printf("sbd-serve: metrics on %s\n", obsAddr)

	<-sig
	forced, err := s.drain(5 * time.Second)
	if err != nil {
		return fail(err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	tx := rt.STM().Begin()
	served, orders := sh.Served(tx), sh.OrdersPlaced(tx)
	tx.Commit()

	layers := s.layerFigures(served, sh.DB().Stats(), &before, &after)
	if spans {
		var tracers []*tracer
		for _, l := range s.loops {
			tracers = append(tracers, l.tr)
		}
		if _, err := writeTrace(outDir, workload, tracers); err != nil {
			return fail(err)
		}
	}
	data, err := json.Marshal(layers)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s%s\n", layersPrefix, data)
	fmt.Printf("sbd-serve: served=%d orders=%d\n", served, orders)
	fmt.Printf("sbd-serve: drained cleanly (forced=%d)\n", forced)
	return 0
}

// layerFigures computes the span server's per-layer figures over its
// whole life: self time per request as the median over all requests of
// all connections, counters per request served.
func (s *spanServer) layerFigures(served int64, db *memdb.Stats, before, after *runtime.MemStats) map[string]float64 {
	out := map[string]float64{}
	n := float64(served)
	requests, runs, non2xx := 0, 0, 0
	for _, l := range s.loops {
		requests += l.requests
		runs += l.runs
		non2xx += l.non2xx
	}
	out["requests"] = float64(requests)
	out["core.replays_per_kreq"] = 1000 * ratio(float64(runs-requests), float64(requests))
	out["shop.non2xx_per_kreq"] = 1000 * ratio(float64(non2xx), float64(requests))
	out["memdb.reads_per_req"] = ratio(float64(db.Reads.Load()), n)
	out["memdb.writes_per_req"] = ratio(float64(db.Writes.Load()), n)
	out["memdb.conflicts_per_kreq"] = 1000 * ratio(float64(db.Conflicts.Load()), n)
	out["memdb.rollbacks_per_kreq"] = 1000 * ratio(float64(db.Rollbacks.Load()), n)
	out["sbd-serve.alloc_b_per_req"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), n)
	out["sbd-serve.gc_cycles_per_kreq"] = 1000 * ratio(float64(after.NumGC-before.NumGC), n)
	if !s.spans {
		return out
	}

	selfs := make([][]int64, len(s.loops))
	for i, l := range s.loops {
		selfs[i] = selfTimes(l.tr.spans)
	}
	selfUs := func(name string, kinds ...spanKind) {
		var v []float64
		for i, l := range s.loops {
			v = append(v, perRequest(l.tr.spans, selfs[i], uint32(l.requests), kinds...)...)
		}
		out[name] = median(v) / 1e3
	}
	perReq := func(name string, k spanKind) {
		count := 0
		for _, l := range s.loops {
			count += countKind(l.tr.spans, uint32(l.requests), k)
		}
		out[name] = ratio(float64(count), float64(requests))
	}
	selfUs("minihttp.wait_us", spWait)
	selfUs("minihttp.sock_read_us", spSockRead)
	perReq("minihttp.reads_per_req", spSockRead)
	selfUs("minihttp.parse_us", spParse)
	selfUs("minihttp.format_us", spFormat)
	selfUs("txio.readline_us", spReadLine)
	selfUs("txio.write_us", spWrite)
	selfUs("txio.flush_us", spFlush)
	perReq("txio.flushes_per_req", spFlush)
	selfUs("core.suspend_self_us", spSuspend)
	selfUs("core.atomic_self_us", spAtomic)
	selfUs("core.split_self_us", spSplit)
	selfUs("shop.handle_us", spBrowse, spAdd, spCheckout, spOther)
	selfUs("shop.browse_us", spBrowse)
	selfUs("shop.add_us", spAdd)
	selfUs("shop.checkout_us", spCheckout)
	return out
}
