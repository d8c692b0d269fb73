// Command sbd-serve runs the SBD webshop as a long-lived server: the
// paper's Tomcat/H2 scenario recast as a real TCP service. Request
// handlers are transactional end to end — STM product rows, memdb
// catalog/cart/order tables committing with the STM transaction (§5.3),
// and response bytes buffered in the transactional connection wrapper
// until commit (§4.4). Every accepted connection gets its own SBD
// thread; transaction identity is virtual, so Begin never blocks and
// in-flight parallelism is bounded by the lock-word slot pool only
// while requests actually hold locks (slot-lease pressure shows up as
// Stats.SlotWaitNs, not as a connection cap).
//
// Endpoints (minihttp wire format, one request line per round trip):
//
//	/browse?item=N                 render the item page (read-mostly)
//	/add?session=S&item=N&qty=Q    upsert a cart line (session-private row)
//	/checkout?session=S            place the order (hot stock rows + order-id row)
//	/stock?item=N                  "available sold" (verification)
//	/healthz                       liveness
//
// The PR-2 observability endpoints (/metrics, /profile, /events, /stats)
// are served on a second TCP port (-obs). SIGTERM/SIGINT drain
// gracefully: stop accepting, finish in-flight requests, force-close
// idle keep-alive connections after -drain, flush final stats, exit 0.
//
// The startup lines
//
//	sbd-serve: listening on <addr>
//	sbd-serve: metrics on <addr>
//
// and the final served=/orders= and "drained cleanly" lines are a
// stable interface: benchmark/server.go parses them.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shop"
)

var (
	addr    = flag.String("addr", "127.0.0.1:0", "shop listen address")
	obsAddr = flag.String("obs", "127.0.0.1:0", "observability listen address ('' disables)")
	items   = flag.Int("items", 24, "catalog size")
	stock   = flag.Int64("stock", 1<<30, "initial per-item stock")
	drain   = flag.Duration("drain", 5*time.Second, "grace for in-flight requests on shutdown")
)

func main() {
	flag.Parse()

	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: *items, Stock: *stock})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbd-serve: %v\n", err)
		os.Exit(1)
	}
	// Before anything is announced: a client may signal the moment it has
	// read the startup lines, and must get the drain, not the default
	// handler.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	srv := shop.NewServer(rt, sh)
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbd-serve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("sbd-serve: listening on %s\n", bound)

	if *obsAddr != "" {
		mAddr, err := obs.NewServer(rt.STM()).ServeTCP(*obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbd-serve: -obs: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("sbd-serve: metrics on %s\n", mAddr)
	}

	got := <-sig
	fmt.Printf("sbd-serve: %v, draining (grace %v)\n", got, *drain)

	forced, err := srv.Drain(*drain)
	snap := rt.Stats().Snapshot()
	tx := rt.STM().Begin()
	served, orders := sh.Served(tx), sh.OrdersPlaced(tx)
	tx.Commit()
	fmt.Printf("sbd-serve: served=%d orders=%d commits=%d aborts=%d contended=%d slotwait=%v invis=%d valaborts=%d modeflips=%d\n",
		served, orders, snap.Commits, snap.Aborts, snap.Contended,
		time.Duration(snap.SlotWaitNs).Round(time.Microsecond),
		snap.InvisReads, snap.ValidationAborts, snap.ModeFlips)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbd-serve: unclean shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("sbd-serve: drained cleanly (forced=%d)\n", forced)
}
