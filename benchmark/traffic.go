package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"
)

// The generator owns its arrival process, key skew and request format
// rather than borrowing internal/loadgen and minihttp.FormatRequest: a
// later change to those packages must not change the load this benchmark
// offers.

// pacer yields the due offsets of a Poisson arrival process. The
// schedule is a pure function of (rate, seed).
type pacer struct {
	gapNs float64 // mean inter-arrival gap
	rng   *rand.Rand
	atNs  float64
}

func newPacer(rate float64, seed int64) *pacer {
	return &pacer{gapNs: 1e9 / rate, rng: rand.New(rand.NewSource(seed))}
}

// next returns the next arrival's offset from the start of the phase.
func (p *pacer) next() time.Duration {
	p.atNs = math.Min(p.atNs+p.gapNs*p.rng.ExpFloat64(), math.MaxInt64/2)
	return time.Duration(p.atNs)
}

type opKind uint8

const (
	opBrowse opKind = iota
	opAdd
	opCheckout
	opStock
	opHealth
)

// request is one generated request. The session is not part of it: a
// connection sends its own.
type request struct {
	op   opKind
	item int
	qty  int64
}

// appendLine appends r's wire form ("GET /path?query\n") to buf.
func (r request) appendLine(buf []byte, session int) []byte {
	switch r.op {
	case opBrowse:
		buf = append(buf, "GET /browse?item="...)
		buf = strconv.AppendInt(buf, int64(r.item), 10)
	case opAdd:
		buf = append(buf, "GET /add?session="...)
		buf = strconv.AppendInt(buf, int64(session), 10)
		buf = append(buf, "&item="...)
		buf = strconv.AppendInt(buf, int64(r.item), 10)
		buf = append(buf, "&qty="...)
		buf = strconv.AppendInt(buf, r.qty, 10)
	case opCheckout:
		buf = append(buf, "GET /checkout?session="...)
		buf = strconv.AppendInt(buf, int64(session), 10)
	case opStock:
		buf = append(buf, "GET /stock?item="...)
		buf = strconv.AppendInt(buf, int64(r.item), 10)
	case opHealth:
		buf = append(buf, "GET /healthz"...)
	}
	return append(buf, '\n')
}

// Workload constants of the serve-* traffic. They are part of the
// benchmark's definition: changing one starts a new baseline.
const (
	shopItems    = 24      // sbd-serve's default catalog
	shopStock    = 1 << 30 // sbd-serve's default per-item stock
	zipfExponent = 1.2
	mixBrowse    = 70 // percent; the rest is mixAdd adds, then checkouts
	mixAdd       = 20
	hotItemA     = 0
	hotItemB     = 1
)

// mixedStream is the serve-mixed request stream of one connection:
// 70/20/10 browse/add/checkout over Zipf(1.2)-skewed items, quantities
// 1 to 3. The stream depends only on seed.
func mixedStream(seed int64) func() request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfExponent, 1, shopItems-1)
	return func() request {
		item := int(zipf.Uint64())
		switch pick := rng.Intn(100); {
		case pick < mixBrowse:
			return request{op: opBrowse, item: item}
		case pick < mixBrowse+mixAdd:
			return request{op: opAdd, item: item, qty: int64(rng.Intn(3) + 1)}
		default:
			return request{op: opCheckout}
		}
	}
}

// checkoutStream is the serve-checkout request stream of one session:
// add(hot) · add(other hot) · checkout, forever. Odd sessions take the
// two hot items in A,B order and even sessions in B,A order, so
// concurrent checkouts lock the two stock rows in opposite orders and
// all of them write the order-id word.
func checkoutStream(session int) func() request {
	first, second := hotItemA, hotItemB
	if session%2 == 0 {
		first, second = hotItemB, hotItemA
	}
	step := 0
	return func() request {
		step++
		switch step % 3 {
		case 1:
			return request{op: opAdd, item: first, qty: 1}
		case 2:
			return request{op: opAdd, item: second, qty: 1}
		default:
			return request{op: opCheckout}
		}
	}
}

// itemPrice mirrors the catalog shop.New seeds: item i costs i%9+1.
func itemPrice(item int) int64 { return int64(item%9 + 1) }

// tally is the generator's own account of what one session did: the
// cart it built and, over all its checkouts, what it bought. It is the
// expected value every reply and the final stock are checked against.
type tally struct {
	cartItems []int         // distinct items in the open cart, in insertion order
	cartQty   map[int]int64 // quantity per item of the open cart
	sold      [shopItems]int64
	orders    int64
}

func newTally() *tally { return &tally{cartQty: map[int]int64{}} }

// expect applies request r to the tally and returns what the server must
// answer, in the form checkBody takes: the whole body as prefix, or, for
// a checkout that places an order, the text before and after the order
// id, which other sessions allocate too and which cannot be predicted.
// An empty prefix accepts any non-empty body.
func (t *tally) expect(r request) (prefix, suffix string) {
	switch r.op {
	case opAdd:
		if _, ok := t.cartQty[r.item]; !ok {
			t.cartItems = append(t.cartItems, r.item)
		}
		t.cartQty[r.item] += r.qty
		return fmt.Sprintf("cart %d lines\n", len(t.cartItems)), ""
	case opCheckout:
		if len(t.cartItems) == 0 {
			return "empty cart\n", ""
		}
		var total int64
		for _, item := range t.cartItems {
			qty := t.cartQty[item]
			total += itemPrice(item) * qty
			t.sold[item] += qty
		}
		lines := len(t.cartItems)
		t.cartItems = t.cartItems[:0]
		clear(t.cartQty)
		t.orders++
		return "order ", fmt.Sprintf(" total %d lines %d\n", total, lines)
	case opHealth:
		return "ok\n", ""
	}
	return "", ""
}

// checkBody reports whether body is what expect predicted: equal to
// prefix when suffix is empty, otherwise prefix + <order id> + suffix.
func checkBody(body []byte, prefix, suffix string) bool {
	if prefix == "" {
		return len(body) > 0
	}
	if suffix == "" {
		return string(body) == prefix
	}
	n := len(body) - len(prefix) - len(suffix)
	if n <= 0 || string(body[:len(prefix)]) != prefix || string(body[len(body)-len(suffix):]) != suffix {
		return false
	}
	_, err := strconv.ParseInt(string(body[len(prefix):len(prefix)+n]), 10, 64)
	return err == nil
}

// stockMismatches compares the server's final /stock answers with the
// sessions' tallies: for every item available + sold must equal the
// initial stock and sold must equal what the sessions bought. It
// returns one message per item that disagrees.
func stockMismatches(available, sold []int64, sessions []*tally) []string {
	var bad []string
	for item := range available {
		var want int64
		for _, t := range sessions {
			want += t.sold[item]
		}
		if available[item]+sold[item] != shopStock {
			bad = append(bad, fmt.Sprintf("item %d: available %d + sold %d != initial stock %d",
				item, available[item], sold[item], int64(shopStock)))
		} else if sold[item] != want {
			bad = append(bad, fmt.Sprintf("item %d: server sold %d, sessions bought %d", item, sold[item], want))
		}
	}
	return bad
}
