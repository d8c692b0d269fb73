package shop

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/memdb"
	"repro/internal/minihttp"
	"repro/internal/sbdcol"
	"repro/internal/stm"
	"repro/internal/txio"
)

// statSlots is the stripe count of the request counter.
const statSlots = 64

// Config sizes a shop.
type Config struct {
	Items int   // catalog size (default 24)
	Stock int64 // initial per-item stock (default 1 << 30)
}

func (c Config) withDefaults() Config {
	if c.Items <= 0 {
		c.Items = 24
	}
	if c.Stock <= 0 {
		c.Stock = 1 << 30
	}
	return c
}

// Shop is the webshop state: hot inventory rows as STM objects, durable
// catalog/cart/order rows in memdb behind the transactional wrapper
// (every request handler's database work commits and rolls back with its
// STM transaction), and striped request statistics.
type Shop struct {
	cfg Config
	rt  *core.Runtime
	db  *txio.DBSession

	catalog *memdb.Table // item id   → [name, price]
	carts   *memdb.Table // session   → ["item:qty", ...]
	orders  *memdb.Table // order id  → [session, total, "item:qty", ...]

	products []*stm.Object // hot rows: stock counters, contended across requests
	orderSeq *stm.Object   // order-id allocator: one hot word every checkout writes
	served   sbdcol.Counter
}

var orderSeqClass = stm.NewClass("shop.OrderSeq",
	stm.FieldSpec{Name: "next", Kind: stm.KindWord},
)

var orderSeqNext = orderSeqClass.Field("next")

// New builds a shop on rt: memdb tables created and the catalog seeded
// in one database transaction, STM state seeded in one committed STM
// transaction.
func New(rt *core.Runtime, cfg Config) (*Shop, error) {
	cfg = cfg.withDefaults()
	s := &Shop{cfg: cfg, rt: rt, db: txio.NewDBSession(memdb.New())}

	var err error
	if s.catalog, err = s.db.DB().CreateTable("catalog"); err != nil {
		return nil, err
	}
	if s.carts, err = s.db.DB().CreateTable("carts"); err != nil {
		return nil, err
	}
	if s.orders, err = s.db.DB().CreateTable("orders"); err != nil {
		return nil, err
	}
	seed := s.db.DB().Begin()
	for i := 0; i < cfg.Items; i++ {
		name := fmt.Sprintf("widget-%02d", i)
		price := int64(i%9 + 1)
		if err := seed.Insert(s.catalog, int64(i), []string{name, strconv.FormatInt(price, 10)}); err != nil {
			seed.Rollback() //nolint:errcheck
			return nil, err
		}
	}
	if err := seed.Commit(); err != nil {
		return nil, err
	}

	tx := rt.STM().Begin()
	for i := 0; i < cfg.Items; i++ {
		s.products = append(s.products, NewProduct(tx, fmt.Sprintf("widget-%02d", i), cfg.Stock))
	}
	s.orderSeq = tx.New(orderSeqClass)
	s.served = sbdcol.NewCounter(tx, statSlots)
	tx.Commit()
	return s, nil
}

// DB exposes the database engine (verification and tests).
func (s *Shop) DB() *memdb.DB { return s.db.DB() }

// Items returns the catalog size.
func (s *Shop) Items() int { return s.cfg.Items }

// StatSlots returns the stripe count of the request counter; connection
// handlers pass their id modulo this as the slot argument of Handle.
func (s *Shop) StatSlots() int { return statSlots }

// Product returns the STM inventory object of item (tests and the
// Figure 3 example drive it directly).
func (s *Shop) Product(item int) *stm.Object { return s.products[item] }

// StockOf reads an item's inventory counters.
func (s *Shop) StockOf(tx *stm.Tx, item int) (available, sold int64) {
	p := s.products[item]
	return tx.ReadInt(p, ProductAvailable), tx.ReadInt(p, ProductSold)
}

// OrdersPlaced reads the order-id allocator (== orders ever placed).
func (s *Shop) OrdersPlaced(tx *stm.Tx) int64 { return tx.ReadInt(s.orderSeq, orderSeqNext) }

// Served sums the striped request counter.
func (s *Shop) Served(tx *stm.Tx) int64 { return s.served.Sum(tx) }

// browsePage is the statically compiled item page (the stand-in for the
// paper's statically compiled JSP pages), sized so rendering and
// response transfer carry realistic per-request weight.
var browsePage = minihttp.MustCompilePage(
	"<!DOCTYPE html><html><head><title>Item {id} — {name}</title>" +
		"<meta charset=\"us-ascii\"><link rel=\"stylesheet\" href=\"/static/shop.css\">" +
		"</head><body><header><nav><a href=\"/\">home</a> | <a href=\"/add?item={id}\">add to cart</a>" +
		" | <a href=\"/checkout\">checkout</a></nav></header>" +
		"<main><h1>Item {id}: {name}</h1>" +
		"<p>Price {price}. {available} in stock, {sold} sold. Thank you for browsing {name}.</p>" +
		"<table><tr><th>SKU</th><td>{id}</td></tr><tr><th>Name</th><td>{name}</td></tr>" +
		"<tr><th>Price</th><td>{price}</td></tr><tr><th>Availability</th><td>{available}</td></tr></table>" +
		"<section class=\"related\"><h2>Customers also viewed</h2><ul>" +
		"<li>{name} (classic)</li><li>{name} (deluxe)</li><li>{name} (refurbished)</li>" +
		"</ul></section></main>" +
		"<footer><small>item {id} — {sold} sold</small></footer>" +
		"</body></html>")

// Handle executes one parsed request inside tx and returns the response.
// slot stripes the request counter (callers use their connection id
// modulo StatSlots). Database work rides on tx via the §5.3 wrapper:
// an abort of tx rolls the memdb transaction back too, so the replayed
// section re-executes against a clean database state.
func (s *Shop) Handle(tx *stm.Tx, req *minihttp.Request, slot int) (status int, body string) {
	status, b := s.AppendHandle(nil, tx, req, slot)
	return status, string(b)
}

// AppendHandle is Handle appending the response body to dst, so a caller
// that reuses dst renders the reply without allocating it.
func (s *Shop) AppendHandle(dst []byte, tx *stm.Tx, req *minihttp.Request, slot int) (status int, body []byte) {
	s.served.Add(tx, slot%statSlots, 1)
	switch req.Path {
	case "/", "/healthz":
		return 200, append(dst, "ok\n"...)
	case "/browse":
		return s.handleBrowse(dst, tx, req)
	case "/stock":
		return s.handleStock(dst, tx, req)
	case "/add":
		return s.handleAdd(dst, tx, req)
	case "/checkout":
		return s.handleCheckout(dst, tx, req)
	default:
		return 404, fmt.Appendf(dst, "unknown path %s\n", req.Path)
	}
}

func (s *Shop) item(req *minihttp.Request) (int, bool) {
	id, err := strconv.Atoi(req.Get("item"))
	if err != nil || id < 0 || id >= s.cfg.Items {
		return 0, false
	}
	return id, true
}

func (s *Shop) session(req *minihttp.Request) (int64, bool) {
	sess, err := strconv.ParseInt(req.Get("session"), 10, 64)
	return sess, err == nil && sess >= 0
}

func (s *Shop) handleBrowse(dst []byte, tx *stm.Tx, req *minihttp.Request) (int, []byte) {
	id, ok := s.item(req)
	if !ok {
		return 404, append(dst, "no such item\n"...)
	}
	row, err := s.db.Txn(tx).Get(s.catalog, int64(id))
	if err != nil {
		return dbStatus(dst, err)
	}
	p := s.products[id]
	// In the order of browsePage.Vars: id, name, price, available, sold.
	return 200, browsePage.AppendRender(dst, strconv.Itoa(id), row[0], row[1],
		strconv.FormatInt(tx.ReadInt(p, ProductAvailable), 10),
		strconv.FormatInt(tx.ReadInt(p, ProductSold), 10))
}

func (s *Shop) handleStock(dst []byte, tx *stm.Tx, req *minihttp.Request) (int, []byte) {
	id, ok := s.item(req)
	if !ok {
		return 404, append(dst, "no such item\n"...)
	}
	avail, sold := s.StockOf(tx, id)
	return 200, fmt.Appendf(dst, "%d %d\n", avail, sold)
}

func (s *Shop) handleAdd(dst []byte, tx *stm.Tx, req *minihttp.Request) (int, []byte) {
	sess, ok := s.session(req)
	if !ok {
		return 400, append(dst, "missing session\n"...)
	}
	id, ok := s.item(req)
	if !ok {
		return 404, append(dst, "no such item\n"...)
	}
	qty := int64(1)
	if q := req.Get("qty"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n <= 0 {
			return 400, append(dst, "bad qty\n"...)
		}
		qty = n
	}

	txn := s.db.Txn(tx)
	lines, err := txn.Get(s.carts, sess)
	switch {
	case err == nil:
		if lines, ok = mergeCartLine(lines, id, qty); !ok {
			return 400, append(dst, "bad qty\n"...)
		}
		if err := txn.Update(s.carts, sess, lines); err != nil {
			return dbStatus(dst, err)
		}
	case errors.Is(err, memdb.ErrNotFound):
		lines = []string{cartLine(id, qty)}
		if err := txn.Insert(s.carts, sess, lines); err != nil {
			return dbStatus(dst, err)
		}
	default:
		return dbStatus(dst, err)
	}
	return 200, fmt.Appendf(dst, "cart %d lines\n", len(lines))
}

func (s *Shop) handleCheckout(dst []byte, tx *stm.Tx, req *minihttp.Request) (int, []byte) {
	sess, ok := s.session(req)
	if !ok {
		return 400, append(dst, "missing session\n"...)
	}
	txn := s.db.Txn(tx)
	lines, err := txn.Get(s.carts, sess)
	if errors.Is(err, memdb.ErrNotFound) {
		return 200, append(dst, "empty cart\n"...)
	}
	if err != nil {
		return dbStatus(dst, err)
	}

	// Check every line before selling any: a rejected checkout still
	// commits its section, so it must leave stock and cart as it found
	// them.
	var total int64
	for _, line := range lines {
		id, qty, ok := parseCartLine(line)
		if !ok || id >= s.cfg.Items {
			return 500, fmt.Appendf(dst, "corrupt cart line %q\n", line)
		}
		// The cross-request hot row: concurrent checkouts of the same item
		// serialize on this product's write lock (or duel through the
		// promotion machinery), never on the database row.
		if tx.ReadIntForWrite(s.products[id], ProductAvailable) < qty {
			return 409, fmt.Appendf(dst, "item %d out of stock\n", id)
		}
		row, err := txn.Get(s.catalog, int64(id))
		if err != nil {
			return dbStatus(dst, err)
		}
		price, _ := strconv.ParseInt(row[1], 10, 64)
		total += price * qty
	}
	if err := txn.Delete(s.carts, sess); err != nil {
		return dbStatus(dst, err)
	}
	// Every line fits: the loop above holds each product's write lock.
	for _, line := range lines {
		id, qty, _ := parseCartLine(line)
		ProcessPosition(tx, s.products[id], qty)
	}

	// Order-id allocation is a single shared word: every checkout in the
	// system writes it, which is exactly the ID-pressure probe ROADMAP
	// item 2 wants quantified.
	id := tx.ReadIntForWrite(s.orderSeq, orderSeqNext) + 1
	tx.WriteInt(s.orderSeq, orderSeqNext, id)

	vals := append([]string{strconv.FormatInt(sess, 10), strconv.FormatInt(total, 10)}, lines...)
	if err := txn.Insert(s.orders, id, vals); err != nil {
		return dbStatus(dst, err)
	}
	return 200, fmt.Appendf(dst, "order %d total %d lines %d\n", id, total, len(lines))
}

// dbStatus maps a memdb error to a response. Conflicts are 409: the
// first-updater-wins engine rejected a second writer of the same row
// (two connections sharing one session id), and the client may retry.
// A duplicate insert is the same race one step later — the competing
// writer already committed — so it maps to 409 as well, not 500.
func dbStatus(dst []byte, err error) (int, []byte) {
	if errors.Is(err, memdb.ErrConflict) || errors.Is(err, memdb.ErrDuplicate) {
		return 409, append(dst, "conflict, retry\n"...)
	}
	if errors.Is(err, memdb.ErrNotFound) {
		return 404, append(dst, "not found\n"...)
	}
	return 500, append(append(dst, err.Error()...), '\n')
}

func cartLine(item int, qty int64) string {
	return strconv.Itoa(item) + ":" + strconv.FormatInt(qty, 10)
}

func parseCartLine(line string) (item int, qty int64, ok bool) {
	is, qs, found := strings.Cut(line, ":")
	if !found {
		return 0, 0, false
	}
	i, err1 := strconv.Atoi(is)
	q, err2 := strconv.ParseInt(qs, 10, 64)
	return i, q, err1 == nil && err2 == nil && i >= 0 && q > 0
}

// mergeCartLine adds qty of item into the cart lines, merging with an
// existing line for the same item. It reports false, and the caller
// keeps the cart as it was, when the merged quantity would overflow.
func mergeCartLine(lines []string, item int, qty int64) ([]string, bool) {
	out := append([]string(nil), lines...)
	for i, line := range out {
		id, q, ok := parseCartLine(line)
		if ok && id == item {
			if q > math.MaxInt64-qty {
				return nil, false
			}
			out[i] = cartLine(item, q+qty)
			return out, true
		}
	}
	return append(out, cartLine(item, qty)), true
}
