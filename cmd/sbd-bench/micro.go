package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/harness"
	"repro/internal/stm"
)

// Table 6 of the paper: the cost of the four lock-operation effects
// (Baseline / New / Owned / Acquire&Release) for reads and writes under
// random and sequential access, over -ops single-field instances (the
// paper: 100 million). The shape to check is that New is nearly free,
// Owned costs a loaded check, and Acquire&Release dominates. The root
// package's BenchmarkTable6* time the same effects on one hot object.
//
// The Rand cells of the Owned and Acq. & Rls. rows depend on allocation
// order. microCell locks (or warms) each object's word right after
// allocating the object, so the lock slab lands next to it in memory.
// While an object's words were an allocation of their own, the value
// word and its lock word sat side by side in the 8-byte size class and
// shared a cache line; an object is now one allocation, so they do not,
// and those Rand cells read slower with the access path unchanged
// (EXPERIMENTS.md). Judge the acquire path by the root package's
// BenchmarkTable6AcqRls* gate, which has no such effect.

var cellClass = stm.NewClass("micro.Cell", stm.FieldSpec{Name: "v", Kind: stm.KindWord})
var cellV = cellClass.Field("v")

// effect selects which lock-operation effect every access triggers.
type effect int

const (
	effBaseline effect = iota // raw access, no STM
	effNew                    // instance new in the transaction: check only
	effOwned                  // lock already held: check only
	effAcqRls                 // fresh acquire + release per instance
)

var effectNames = [...]string{"Baseline", "New", "Owned", "Acq. & Rls."}

func table6(out io.Writer, ops, iters int) {
	tbl := harness.NewTable("Effect", "Read/Rand", "Read/Seq", "Write/Rand", "Write/Seq")
	var baselines [4]time.Duration
	cells := [][2]bool{{false, true}, {false, false}, {true, true}, {true, false}} // {write, random}
	for e := effBaseline; e <= effAcqRls; e++ {
		row := []any{effectNames[e]}
		for ci, c := range cells {
			d := microCell(e, c[0], c[1], ops, iters)
			if e == effBaseline {
				baselines[ci] = d
				row = append(row, d.Round(time.Microsecond).String())
			} else {
				pct := harness.OverheadPercent(baselines[ci], d)
				row = append(row, fmt.Sprintf("%v (%+.0f%%)", d.Round(time.Microsecond), pct))
			}
		}
		tbl.Row(row...)
	}
	printTable(out, fmt.Sprintf("Table 6: microbenchmark, %d operations per cell (median of %d)", ops, iters), tbl,
		"Paper shape: New ≈ free (≤ +1.1%), Owned a loaded check (+45..114%),",
		"Acq.&Rls. dominant (+110..634%).")
}

// order precomputes the access order: sequential, or a deterministic
// xorshift shuffle of the index space.
func order(n int, random bool) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	if !random {
		return idx
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx
}

// microCell measures one cell of the table and returns the median time.
func microCell(eff effect, write, random bool, n, iters int) time.Duration {
	var times []time.Duration
	for it := 0; it < iters; it++ {
		idx := order(n, random)
		rt := stm.NewRuntime()
		var tx *stm.Tx
		if eff == effNew || eff == effOwned {
			tx = rt.Begin()
		}
		objs := make([]*stm.Object, n)
		for i := range objs {
			if eff == effNew {
				objs[i] = tx.New(cellClass)
				continue
			}
			objs[i] = stm.NewCommitted(cellClass)
			switch {
			case eff == effOwned && write: // pre-own every lock
				tx.WriteWord(objs[i], cellV, 0)
			case eff == effOwned:
				tx.ReadWord(objs[i], cellV)
			case eff == effAcqRls:
				// Pre-allocate lock slabs so the loop measures
				// acquire/release, not lazy init.
				warm := rt.Begin()
				warm.ReadWord(objs[i], cellV)
				warm.Commit()
			}
		}
		var sink uint64
		start := time.Now()
		switch eff {
		case effBaseline:
			for _, i := range idx {
				if write {
					objs[i].SetRawWord(cellV, uint64(i))
				} else {
					sink += objs[i].RawWord(cellV)
				}
			}
		case effNew, effOwned:
			for _, i := range idx {
				if write {
					tx.WriteWord(objs[i], cellV, uint64(i))
				} else {
					sink += tx.ReadWord(objs[i], cellV)
				}
			}
		case effAcqRls:
			tx = rt.Begin()
			for k, i := range idx {
				if write {
					tx.WriteWord(objs[i], cellV, uint64(i))
				} else {
					sink += tx.ReadWord(objs[i], cellV)
				}
				// Split periodically so every access is a fresh acquire
				// (one long transaction would turn them into owned
				// checks); the batch bounds commit overhead.
				if k%64 == 63 {
					tx.Commit()
					tx = rt.Begin()
				}
			}
			tx.Commit()
		}
		times = append(times, time.Since(start))
		if eff == effNew || eff == effOwned {
			tx.Commit()
		}
		_ = sink
	}
	return harness.Median(times)
}
