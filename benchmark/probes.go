package main

import (
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/memdb"
	"repro/internal/stm"
)

// Unit-cost probes: each is a timed loop over one public call on an
// object nothing else touches, the per-access accounting unit of
// Kuznetsov & Ravi's "On the Cost of Concurrency in TM". The loops
// follow the repository's own Table 6 benchmarks.

var probeClass = stm.NewClass("benchmark.probe", stm.FieldSpec{Name: "v", Kind: stm.KindWord})
var probeV = probeClass.Field("v")

const (
	probeIters   = 200000
	probeRepeats = 5
)

// probeNs returns the median over probeRepeats of the time one of
// probeIters calls of fn takes.
func probeNs(fn func(i int)) float64 {
	var per []float64
	for range probeRepeats {
		t0 := time.Now()
		for i := range probeIters {
			fn(i)
		}
		per = append(per, float64(time.Since(t0))/probeIters)
	}
	return median(per)
}

var probeSink uint64

type unitCosts struct {
	beginCommit, acquireRead, acquireWrite, checkOwned, checkNew, invisRead, batch4 float64
}

// probeUnitCosts measures the stm fast-path unit costs and the empty
// core section, and records them in res.
func probeUnitCosts(res *result) unitCosts {
	var u unitCosts
	rt := stm.NewRuntime()
	o := stm.NewCommitted(probeClass)
	warm := rt.Begin()
	warm.WriteWord(o, probeV, 0) // allocate the lock slab outside the loops
	warm.Commit()

	u.beginCommit = probeNs(func(int) { rt.Begin().Commit() })
	// An acquire is timed as a whole one-access transaction minus the
	// empty transaction: acquire, release and, for a write, the undo entry.
	u.acquireRead = probeNs(func(int) {
		tx := rt.Begin()
		probeSink += tx.ReadWord(o, probeV)
		tx.Commit()
	}) - u.beginCommit
	u.acquireWrite = probeNs(func(i int) {
		tx := rt.Begin()
		tx.WriteWord(o, probeV, uint64(i))
		tx.Commit()
	}) - u.beginCommit

	tx := rt.Begin()
	tx.ReadWord(o, probeV)
	u.checkOwned = probeNs(func(int) { probeSink += tx.ReadWord(o, probeV) })
	fresh := tx.New(probeClass)
	u.checkNew = probeNs(func(int) { probeSink += tx.ReadWord(fresh, probeV) })
	tx.Commit()

	// Invisible reads: a runtime of its own whose site is trained to
	// saturation; the first read of the object installs its version array.
	irt := stm.NewRuntime()
	irt.SeedInvisible(probeClass, probeV)
	io := stm.NewCommitted(probeClass)
	for range 2 {
		t := irt.Begin()
		t.ReadWord(io, probeV)
		t.Commit()
	}
	before := irt.Stats().Snapshot().InvisReads
	u.invisRead = probeNs(func(int) {
		t := irt.Begin()
		probeSink += t.ReadWord(io, probeV)
		t.Commit()
	}) - u.beginCommit
	if irt.Stats().Snapshot().InvisReads == before {
		u.invisRead = 0 // the site never went invisible: report no figure
	}

	arr := stm.NewCommittedArray(stm.KindWord, 4)
	accs := make([]stm.BatchAccess, 4)
	pre := rt.Begin()
	for i := range accs {
		pre.ReadElem(arr, i)
		accs[i] = stm.BatchAccess{Obj: arr, Index: i, IsElem: true, Write: true}
	}
	pre.Commit()
	u.batch4 = probeNs(func(int) {
		t := rt.Begin()
		t.AcquireBatch(accs)
		t.Commit()
	}) - u.beginCommit

	res.set("stm.begin_commit_ns", u.beginCommit)
	res.set("stm.acquire_read_ns", u.acquireRead)
	res.set("stm.acquire_write_ns", u.acquireWrite)
	res.set("stm.check_owned_ns", u.checkOwned)
	res.set("stm.check_new_ns", u.checkNew)
	res.set("stm.invis_read_ns", u.invisRead)
	res.set("stm.batch4_ns", u.batch4)

	// The empty section: what core adds around the stm calls.
	// Atomic is timed together with the Split that empties its replay log
	// and reported net of it.
	core.New().Main(func(th *core.Thread) {
		split := probeNs(func(int) { th.Split() })
		pair := probeNs(func(int) {
			th.Atomic(func(*stm.Tx) {})
			th.Split()
		})
		res.set("core.split_ns", split)
		res.set("core.atomic_ns", pair-split)
	})
	return u
}

// probeMemdb times one Begin/Get/Update/Commit cycle on a 1000-row
// table, with no STM transaction around it.
func probeMemdb() (float64, error) {
	db := memdb.New()
	table, err := db.CreateTable("probe")
	if err != nil {
		return 0, err
	}
	seed := db.Begin()
	for k := int64(0); k < 1000; k++ {
		if err := seed.Insert(table, k, []string{"v", strconv.FormatInt(k, 10)}); err != nil {
			return 0, err
		}
	}
	if err := seed.Commit(); err != nil {
		return 0, err
	}
	var failed error
	ns := probeNs(func(i int) {
		tx := db.Begin()
		key := int64(i % 1000)
		row, err := tx.Get(table, key)
		if err == nil {
			err = tx.Update(table, key, row)
		}
		if err == nil {
			err = tx.Commit()
		}
		if err != nil && failed == nil {
			failed = err
		}
	})
	return ns, failed
}
