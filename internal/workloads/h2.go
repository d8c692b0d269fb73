package workloads

import (
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/memdb"
	"repro/internal/stm"
	"repro/internal/txio"
)

// H2: a bank workload against the memdb database engine. Threads run
// short transfer transactions through the database interface; the
// database has transactions of its own, so the SBD variant integrates it
// with a transactional wrapper that maps every atomic section onto one
// database transaction (paper §5.3: "As databases use transactions we
// integrated the JDBC classes using transactional wrappers").
//
// Paper profile: the lowest overhead of the suite (13.4% single-threaded,
// falling to 0.4% at 32 threads) because almost all time is spent inside
// the database, and almost no additional transaction memory (Table 8).
// Access to hot rows is ordered by STM stripe locks, so the database
// itself never sees a write conflict — the STM's pessimistic ordering
// does the serialization, which is why overhead shrinks as threads grow.

type h2Input struct {
	nAccounts int
	opsPerThr int
	initBal   int64
}

// H2 builds the H2 workload.
func H2() *Workload {
	return &Workload{
		Name: "h2",
		Effort: Effort{
			LOC: 1235, Split: 1, Custom: 0, CanSplit: 39, Final: 14,
			Synchronized: 1, Volatile: 0,
		},
		Prepare: func(scale int) any {
			return &h2Input{nAccounts: 64 * scale, opsPerThr: 150 * scale, initBal: 1000}
		},
		Baseline: h2Baseline,
		SBD:      h2SBD,
	}
}

// h2Setup builds the accounts table.
func h2Setup(input *h2Input) (*memdb.DB, *memdb.Table) {
	db := memdb.New()
	tbl, err := db.CreateTable("accounts")
	if err != nil {
		panic(err)
	}
	tx := db.Begin()
	for a := 0; a < input.nAccounts; a++ {
		if err := tx.Insert(tbl, int64(a), []string{strconv.FormatInt(input.initBal, 10)}); err != nil {
			panic(err)
		}
	}
	tx.Commit() //nolint:errcheck
	return db, tbl
}

// h2Plan returns the deterministic (from, to, amount) sequence of one
// thread. Transfers are net-composable, so the final state is identical
// for any interleaving.
func h2Plan(thread, op, threads, nAccounts int) (from, to int64, amount int64) {
	h := uint64(thread+1)*0x9E3779B97F4A7C15 + uint64(op)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	from = int64(h % uint64(nAccounts))
	to = int64((h >> 13) % uint64(nAccounts))
	if to == from {
		to = (to + 1) % int64(nAccounts)
	}
	amount = int64(h%7) + 1
	return
}

// audit is the periodic reporting query of the bank workload: a full
// scan summing balances (read-committed, so it needs no locks beyond the
// engine's). The scan walks the table's standing key order, as H2's
// B-tree primary index does, so it is O(n) and sorts nothing. Its rows
// and the transfers' reads and updates keep the workload
// database-time-dominated, the property behind H2's low SBD overhead in
// the paper.
func audit(txn *memdb.Txn, tbl *memdb.Table) (int64, error) {
	var total int64
	err := txn.Scan(tbl, func(_ int64, vals []string) bool {
		b, _ := strconv.ParseInt(vals[0], 10, 64)
		total += b
		return true
	})
	return total, err
}

const h2AuditEvery = 16

func transfer(txn *memdb.Txn, tbl *memdb.Table, from, to, amount int64) error {
	get := func(k int64) (int64, error) {
		v, err := txn.Get(tbl, k)
		if err != nil {
			return 0, err
		}
		return strconv.ParseInt(v[0], 10, 64)
	}
	fb, err := get(from)
	if err != nil {
		return err
	}
	tb, err := get(to)
	if err != nil {
		return err
	}
	if err := txn.Update(tbl, from, []string{strconv.FormatInt(fb-amount, 10)}); err != nil {
		return err
	}
	return txn.Update(tbl, to, []string{strconv.FormatInt(tb+amount, 10)})
}

// h2Checksum hashes the final balance list, which Scan returns in key
// order.
func h2Checksum(db *memdb.DB, tbl *memdb.Table) uint64 {
	txn := db.Begin()
	defer txn.Rollback() //nolint:errcheck
	var h uint64
	txn.Scan(tbl, func(k int64, vals []string) bool { //nolint:errcheck
		b, _ := strconv.ParseInt(vals[0], 10, 64)
		h = fnvU64(h, uint64(k))
		h = fnvU64(h, uint64(b))
		return true
	})
	return h
}

const h2Stripes = 16

func h2Baseline(in any, threads int) uint64 {
	input := in.(*h2Input)
	db, tbl := h2Setup(input)

	// Explicit synchronization: stripe locks order access to account
	// rows so database transactions never conflict.
	var stripes [h2Stripes]sync.Mutex
	lockPair := func(a, b int64) (func(), bool) {
		sa, sb := int(a)%h2Stripes, int(b)%h2Stripes
		if sa == sb {
			stripes[sa].Lock()
			return func() { stripes[sa].Unlock() }, true
		}
		lo, hi := sa, sb
		if lo > hi {
			lo, hi = hi, lo
		}
		stripes[lo].Lock()
		stripes[hi].Lock()
		return func() { stripes[hi].Unlock(); stripes[lo].Unlock() }, true
	}

	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for op := 0; op < input.opsPerThr; op++ {
				from, to, amount := h2Plan(t, op, threads, input.nAccounts)
				unlock, _ := lockPair(from, to)
				txn := db.Begin()
				if err := transfer(txn, tbl, from, to, amount); err != nil {
					panic(err)
				}
				if op%h2AuditEvery == 0 {
					if _, err := audit(txn, tbl); err != nil {
						panic(err)
					}
				}
				txn.Commit() //nolint:errcheck
				unlock()
			}
		}(t)
	}
	wg.Wait()
	return h2Checksum(db, tbl)
}

func h2SBD(rt *core.Runtime, in any, threads int) uint64 {
	input := in.(*h2Input)
	db, tbl := h2Setup(input)
	ses := txio.NewDBSession(db)

	// Stripe objects: the STM's pessimistic field locks order access to
	// account stripes, replacing the baseline's mutexes. Each stripe is a
	// separate object, so stripes never false-share.
	stripeClass := stm.NewClass("h2.Stripe", stm.FieldSpec{Name: "v", Kind: stm.KindWord})
	stripeV := stripeClass.Field("v")
	var stripes [h2Stripes]*stm.Object
	seedObject(rt, func(tx *stm.Tx) {
		for i := range stripes {
			stripes[i] = tx.New(stripeClass)
		}
	})

	rt.Main(func(th *core.Thread) {
		var kids []*core.Thread
		for t := 0; t < threads; t++ {
			tid := t
			kids = append(kids, th.Go("bank", func(w *core.Thread) {
				for op := 0; op < input.opsPerThr; op++ {
					from, to, amount := h2Plan(tid, op, threads, input.nAccounts)
					w.AtomicSplit(func(tx *stm.Tx) {
						// Ordered stripe lock acquisition (the program
						// orders memory accesses to avoid deadlocks,
						// paper §3.2 semantics point 2).
						sa, sb := int(from)%h2Stripes, int(to)%h2Stripes
						if sa > sb {
							sa, sb = sb, sa
						}
						// Write directly (no read-modify-write): a straight
						// write acquisition queues fairly instead of
						// upgrade-dueling, keeping the abort rate at the
						// paper's 0.0%.
						tx.WriteInt(stripes[sa], stripeV, int64(op))
						if sb != sa {
							tx.WriteInt(stripes[sb], stripeV, int64(op))
						}
						txn := ses.Txn(tx)
						if err := transfer(txn, tbl, from, to, amount); err != nil {
							panic(err)
						}
						if op%h2AuditEvery == 0 {
							if _, err := audit(txn, tbl); err != nil {
								panic(err)
							}
						}
					})
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	return h2Checksum(db, tbl)
}
