package shop_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/minihttp"
	"repro/internal/shop"
	"repro/internal/stm"
)

// get performs one request on the client half of an in-memory pair and
// returns the parsed response.
func get(t *testing.T, c *minihttp.Conn, path string) (int, string) {
	t.Helper()
	if _, err := c.Write([]byte("GET " + path + "\n")); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	header, err := c.ReadLine()
	if err != nil {
		t.Fatalf("read header for %s: %v", path, err)
	}
	status, length, err := minihttp.ParseResponseHeader(header)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, length)
	for got := 0; got < length; {
		n, err := c.Read(body[got:])
		if err != nil {
			t.Fatalf("read body for %s: %v", path, err)
		}
		got += n
	}
	return status, string(body)
}

// serveOne runs a shop server for a single in-memory connection and
// returns the client half plus a channel closed when the serving thread
// (and with it the runtime) has fully exited.
func serveOne(sh *shop.Shop, rt *core.Runtime) (*minihttp.Conn, <-chan struct{}) {
	server, client := minihttp.Pair()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Main(func(th *core.Thread) {
			sh.ServeConn(th, server, 0, nil)
		})
	}()
	return client, done
}

func TestHandlerRoundTrip(t *testing.T) {
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 4, Stock: 5})
	if err != nil {
		t.Fatal(err)
	}
	client, done := serveOne(sh, rt)

	if st, body := get(t, client, "/healthz"); st != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", st, body)
	}
	if st, body := get(t, client, "/browse?item=3"); st != 200 || !strings.Contains(body, "widget-03") {
		t.Fatalf("/browse: %d %q", st, body)
	}
	if st, body := get(t, client, "/stock?item=0"); st != 200 || body != "5 0\n" {
		t.Fatalf("/stock before: %d %q", st, body)
	}
	if st, body := get(t, client, "/add?session=7&item=0&qty=2"); st != 200 || body != "cart 1 lines\n" {
		t.Fatalf("/add: %d %q", st, body)
	}
	if st, body := get(t, client, "/add?session=7&item=1&qty=1"); st != 200 || body != "cart 2 lines\n" {
		t.Fatalf("/add second item: %d %q", st, body)
	}
	st, body := get(t, client, "/checkout?session=7")
	if st != 200 || !strings.HasPrefix(body, "order 1 total ") {
		t.Fatalf("/checkout: %d %q", st, body)
	}
	if st, body := get(t, client, "/stock?item=0"); st != 200 || body != "3 2\n" {
		t.Fatalf("/stock after: %d %q", st, body)
	}
	// Checkout consumed the cart: a second checkout finds it empty.
	if st, body := get(t, client, "/checkout?session=7"); st != 200 || body != "empty cart\n" {
		t.Fatalf("second /checkout: %d %q", st, body)
	}
	if st, _ := get(t, client, "/nope"); st != 404 {
		t.Fatalf("unknown path: %d", st)
	}
	if st, _ := get(t, client, "/browse?item=99"); st != 404 {
		t.Fatalf("out-of-range item: %d", st)
	}

	// The order row landed in memdb in the same transaction.
	orders, err := sh.DB().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	check := sh.DB().Begin()
	row, err := check.Get(orders, 1)
	if err != nil || row[0] != "7" {
		t.Fatalf("order row: %v, %v", row, err)
	}
	check.Rollback() //nolint:errcheck

	client.Close()
	<-done
}

// TestOverstockedCheckoutRejected drives a checkout that exceeds stock
// and verifies nothing committed: the 409 response leaves stock, orders,
// and the cart exactly as they were, also when an earlier cart line fits (memdb rides the STM transaction,
// but a handler returning 409 still commits — so the handler itself must
// not have mutated anything beyond the cart read).
func TestOverstockedCheckoutRejected(t *testing.T) {
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 2, Stock: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, done := serveOne(sh, rt)

	if st, _ := get(t, client, "/add?session=1&item=0&qty=2"); st != 200 {
		t.Fatalf("add: %d", st)
	}
	if st, body := get(t, client, "/checkout?session=1"); st != 409 {
		t.Fatalf("overstocked checkout: %d %q", st, body)
	}
	if st, body := get(t, client, "/stock?item=0"); st != 200 || body != "1 0\n" {
		t.Fatalf("stock after rejected checkout: %d %q", st, body)
	}
	// A line that fits ahead of one that does not: neither is sold.
	for _, path := range []string{"/add?session=2&item=0&qty=1", "/add?session=2&item=1&qty=2"} {
		if st, _ := get(t, client, path); st != 200 {
			t.Fatalf("%s: %d", path, st)
		}
	}
	if st, body := get(t, client, "/checkout?session=2"); st != 409 {
		t.Fatalf("two-line overstocked checkout: %d %q", st, body)
	}
	for _, item := range []string{"0", "1"} {
		if st, body := get(t, client, "/stock?item="+item); st != 200 || body != "1 0\n" {
			t.Fatalf("stock of item %s after rejected two-line checkout: %d %q", item, st, body)
		}
	}
	// The cart is still in place: one more unit of item 0 merges into it.
	if st, body := get(t, client, "/add?session=2&item=0&qty=1"); st != 200 || body != "cart 2 lines\n" {
		t.Fatalf("cart after rejected checkout: %d %q", st, body)
	}
	client.Close()
	<-done

	tx := rt.STM().Begin()
	if n := sh.OrdersPlaced(tx); n != 0 {
		t.Fatalf("orders placed after rejection: %d", n)
	}
	tx.Commit()
}

func TestMalformedRequestClosesConn(t *testing.T) {
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 2, Stock: 5})
	if err != nil {
		t.Fatal(err)
	}
	client, done := serveOne(sh, rt)

	if st, _ := get(t, client, ""); st != 400 {
		t.Fatalf("malformed request: %d", st)
	}
	// The server hung up after answering 400.
	if _, err := client.ReadLine(); err == nil {
		t.Fatal("connection still open after malformed request")
	}
	client.Close()
	<-done
}

// TestConcurrentCheckoutConservesStock is the ISSUE's race test: many
// SBD threads hammer cart-add and checkout on the same hot product row.
// The stock decrement goes through the STM write lock (ProcessPosition
// declares write intent), so no update may be lost: afterwards
// available + sold == initial stock, sold == units checked out, and the
// orders table holds exactly one row per checkout.
func TestConcurrentCheckoutConservesStock(t *testing.T) {
	const (
		workers = 8
		rounds  = 40
	)
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 2, Stock: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	var failures atomic.Int64
	rt.Main(func(th *core.Thread) {
		kids := make([]*core.Thread, 0, workers)
		for w := 0; w < workers; w++ {
			sess := strconv.Itoa(w)
			// Two workers share each request-counter stripe, so the
			// served counter's increments contend too.
			slot := w % (workers / 2)
			kids = append(kids, th.Go("worker"+sess, func(wt *core.Thread) {
				add, _ := minihttp.ParseRequest("GET /add?session=" + sess + "&item=0&qty=1")
				checkout, _ := minihttp.ParseRequest("GET /checkout?session=" + sess)
				for r := 0; r < rounds; r++ {
					// Statuses are captured in locals and counted after the
					// section: an aborted section replays its body, and raw
					// counters bumped inside it would double-count.
					var addSt, coSt int
					wt.Atomic(func(tx *stm.Tx) {
						addSt, _ = sh.Handle(tx, add, slot)
					})
					wt.Split()
					wt.Atomic(func(tx *stm.Tx) {
						coSt, _ = sh.Handle(tx, checkout, slot)
					})
					wt.Split()
					if addSt != 200 || coSt != 200 {
						failures.Add(1)
					}
				}
			}))
		}
		th.Split() // deferred starts: the workers run from here
		for _, k := range kids {
			th.Join(k)
		}
	})
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d handler calls failed", n)
	}

	const want = workers * rounds
	tx := rt.STM().Begin()
	avail, sold := sh.StockOf(tx, 0)
	placed := sh.OrdersPlaced(tx)
	served := sh.Served(tx)
	tx.Commit()
	if sold != want || avail != 1<<20-want {
		t.Fatalf("stock not conserved: available=%d sold=%d want sold=%d", avail, sold, want)
	}
	if placed != want {
		t.Fatalf("orders placed = %d, want %d", placed, want)
	}
	if served != 2*want {
		t.Fatalf("served = %d, want %d", served, 2*want)
	}

	orders, err := sh.DB().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	carts, err := sh.DB().Table("carts")
	if err != nil {
		t.Fatal(err)
	}
	check := sh.DB().Begin()
	var orderRows, cartRows int
	check.Scan(orders, func(int64, []string) bool { orderRows++; return true }) //nolint:errcheck
	check.Scan(carts, func(int64, []string) bool { cartRows++; return true })   //nolint:errcheck
	check.Rollback()                                                            //nolint:errcheck
	if orderRows != want {
		t.Fatalf("orders table has %d rows, want %d", orderRows, want)
	}
	if cartRows != 0 {
		t.Fatalf("carts table has %d leftover rows", cartRows)
	}
}

// TestInvisibleCheckoutConservesStock is the invisible-read variant of
// the stock-conservation race: the product counters are seeded into the
// optimistic invisible tier, browse threads read them with no shared
// store at all, and checkout threads keep committing decrements under
// them. Browses whose invisible reads are overwritten before commit must
// validation-abort and replay — never observe torn stock, never make a
// writer lose an update — and once the first abort crushes the site the
// tier backs itself off. Conservation is the writers' half of the proof;
// available+sold consistency inside each browse section is the readers'.
func TestInvisibleCheckoutConservesStock(t *testing.T) {
	const (
		writers = 4
		readers = 4
		rounds  = 40
	)
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 2, Stock: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt.STM().SeedInvisible(shop.ProductClass, shop.ProductAvailable)
	rt.STM().SeedInvisible(shop.ProductClass, shop.ProductSold)

	var failures, torn atomic.Int64
	rt.Main(func(th *core.Thread) {
		kids := make([]*core.Thread, 0, writers+readers)
		for w := 0; w < writers; w++ {
			sess := strconv.Itoa(w)
			id := w
			kids = append(kids, th.Go("buyer"+sess, func(wt *core.Thread) {
				add, _ := minihttp.ParseRequest("GET /add?session=" + sess + "&item=0&qty=1")
				checkout, _ := minihttp.ParseRequest("GET /checkout?session=" + sess)
				for r := 0; r < rounds; r++ {
					var addSt, coSt int
					wt.Atomic(func(tx *stm.Tx) {
						addSt, _ = sh.Handle(tx, add, id)
					})
					wt.Split()
					wt.Atomic(func(tx *stm.Tx) {
						coSt, _ = sh.Handle(tx, checkout, id)
					})
					wt.Split()
					if addSt != 200 || coSt != 200 {
						failures.Add(1)
					}
				}
			}))
		}
		for g := 0; g < readers; g++ {
			kids = append(kids, th.Go(fmt.Sprintf("browser%d", g), func(wt *core.Thread) {
				p := sh.Product(0)
				for r := 0; r < rounds; r++ {
					// Two reads of the same pair inside one section: if the
					// optimistic tier ever let a writer's commit slide between
					// them undetected, the sums would disagree.
					var a1, s1, a2, s2 int64
					wt.Atomic(func(tx *stm.Tx) {
						a1, s1 = sh.StockOf(tx, 0)
						a2 = tx.ReadInt(p, shop.ProductAvailable)
						s2 = tx.ReadInt(p, shop.ProductSold)
					})
					wt.Split()
					if a1+s1 != 1<<20 || a1 != a2 || s1 != s2 {
						torn.Add(1)
					}
				}
			}))
		}
		th.Split()
		for _, k := range kids {
			th.Join(k)
		}
	})
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d handler calls failed", n)
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d browse sections observed torn stock", n)
	}

	const want = writers * rounds
	tx := rt.STM().Begin()
	avail, sold := sh.StockOf(tx, 0)
	placed := sh.OrdersPlaced(tx)
	tx.Commit()
	if sold != want || avail != 1<<20-want {
		t.Fatalf("stock not conserved: available=%d sold=%d want sold=%d", avail, sold, want)
	}
	if placed != want {
		t.Fatalf("orders placed = %d, want %d", placed, want)
	}
	snap := rt.Stats().Snapshot()
	if snap.InvisReads == 0 {
		t.Fatalf("seeded product counters served no invisible reads: %+v", snap)
	}
}

// TestConcurrentAddSharedSession races cart adds on ONE session so the
// memdb cart row itself is the contended resource. The first-updater-wins
// engine rejects overlapping writers with ErrConflict (409 at the
// handler), and every add that reported 200 must be present in the final
// cart: successes + rejections == attempts, quantity == successes.
func TestConcurrentAddSharedSession(t *testing.T) {
	const (
		workers  = 6
		attempts = 50
	)
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 2, Stock: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	var ok, conflict, other atomic.Int64
	rt.Main(func(th *core.Thread) {
		kids := make([]*core.Thread, 0, workers)
		for w := 0; w < workers; w++ {
			id := w
			kids = append(kids, th.Go(fmt.Sprintf("adder%d", id), func(wt *core.Thread) {
				add, _ := minihttp.ParseRequest("GET /add?session=0&item=1&qty=1")
				for r := 0; r < attempts; r++ {
					var st int
					wt.Atomic(func(tx *stm.Tx) {
						st, _ = sh.Handle(tx, add, id)
					})
					wt.Split()
					switch st {
					case 200:
						ok.Add(1)
					case 409:
						conflict.Add(1)
					default:
						other.Add(1)
					}
				}
			}))
		}
		th.Split()
		for _, k := range kids {
			th.Join(k)
		}
	})
	if other.Load() != 0 {
		t.Fatalf("%d adds failed with unexpected status", other.Load())
	}
	if got := ok.Load() + conflict.Load(); got != workers*attempts {
		t.Fatalf("accounted %d attempts, want %d", got, workers*attempts)
	}

	carts, err := sh.DB().Table("carts")
	if err != nil {
		t.Fatal(err)
	}
	check := sh.DB().Begin()
	lines, err := check.Get(carts, 0)
	check.Rollback() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("cart lines = %v, want one merged line", lines)
	}
	qty, found := strings.CutPrefix(lines[0], "1:")
	if !found {
		t.Fatalf("cart line %q", lines[0])
	}
	if n, _ := strconv.ParseInt(qty, 10, 64); n != ok.Load() {
		t.Fatalf("cart qty %d != successful adds %d (lost or phantom update)", n, ok.Load())
	}
}

// TestAddOverflowRejected: an add whose merged quantity would overflow
// int64 answers 400 and leaves the cart as it was, so the session can
// still check out. A stored overflow would read back as a negative
// quantity, which checkout can only answer 500.
func TestAddOverflowRejected(t *testing.T) {
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{Items: 2, Stock: 5})
	if err != nil {
		t.Fatal(err)
	}
	client, done := serveOne(sh, rt)

	if st, body := get(t, client, "/add?session=1&item=0&qty=9223372036854775807"); st != 200 {
		t.Fatalf("first add: %d %q", st, body)
	}
	if st, body := get(t, client, "/add?session=1&item=0&qty=1"); st != 400 || body != "bad qty\n" {
		t.Errorf("overflowing add: %d %q, want 400 \"bad qty\\n\"", st, body)
	}
	if st, body := get(t, client, "/checkout?session=1"); st != 409 || body != "item 0 out of stock\n" {
		t.Fatalf("checkout after rejected add: %d %q, want 409 out of stock", st, body)
	}
	client.Close()
	<-done

	carts, err := sh.DB().Table("carts")
	if err != nil {
		t.Fatal(err)
	}
	check := sh.DB().Begin()
	lines, err := check.Get(carts, 1)
	check.Rollback() //nolint:errcheck
	if err != nil || len(lines) != 1 || lines[0] != "0:9223372036854775807" {
		t.Fatalf("cart after rejected add = %v, %v; want the first add's line", lines, err)
	}
}

// TestUniformMixHasNoValidationAborts drives the serving mix (70 %
// browse, 20 % add, 10 % checkout over uniformly chosen items and a few
// sessions) through ServeConn one request at a time. The invisible-read
// tier must turn on, and with nothing overlapping every validation abort
// is spurious: optimism switched on where it can only lose.
func TestUniformMixHasNoValidationAborts(t *testing.T) {
	const (
		requests = 2000
		sessions = 8
	)
	rt := core.New()
	sh, err := shop.New(rt, shop.Config{})
	if err != nil {
		t.Fatal(err)
	}
	client, done := serveOne(sh, rt)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < requests; i++ {
		var path string
		switch sess, item, r := rng.Intn(sessions), rng.Intn(sh.Items()), rng.Intn(100); {
		case r < 70:
			path = fmt.Sprintf("/browse?item=%d", item)
		case r < 90:
			path = fmt.Sprintf("/add?session=%d&item=%d&qty=1", sess, item)
		default:
			path = fmt.Sprintf("/checkout?session=%d", sess)
		}
		if st, body := get(t, client, path); st/100 != 2 {
			t.Fatalf("request %d %s: %d %q", i, path, st, body)
		}
	}
	client.Close()
	<-done

	s := rt.Stats().Snapshot()
	t.Logf("%d invisible reads, %d validation aborts", s.InvisReads, s.ValidationAborts)
	if s.InvisReads == 0 {
		t.Fatal("no invisible reads: the check below would be vacuous")
	}
	if s.ValidationAborts != 0 {
		t.Fatalf("%d validation aborts over %d invisible reads with one request in flight",
			s.ValidationAborts, s.InvisReads)
	}
}
