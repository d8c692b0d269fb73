package repro_test

// The fast-path gate and the ablation benchmarks for the design choices
// DESIGN.md calls out. The paper's tables and figure (§5) are printed by
// cmd/sbd-bench, once each.
//
//	Table 6  — BenchmarkTable6* (lock-operation effects on one hot
//	           object; Table6AcqRls* is the CI fast-path gate)
//	Batching — BenchmarkAcquireBatch (one sorted multi-word acquire vs.
//	           k single-word acquires)
//	Ablation — BenchmarkAblation* (final fields, isEmpty flag, string
//	           cache, inevitable transactions, compiler passes)

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/sbdcol"
	"repro/internal/stm"
	"repro/internal/txio"
	"repro/internal/workloads"
)

// ---- Table 6: microbenchmark ----

var microCell = stm.NewClass("bench.Cell", stm.FieldSpec{Name: "v", Kind: stm.KindWord})
var microV = microCell.Field("v")

func BenchmarkTable6BaselineRead(b *testing.B) {
	o := stm.NewCommitted(microCell)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += o.RawWord(microV)
	}
	_ = sink
}

func BenchmarkTable6NewRead(b *testing.B) {
	rt := stm.NewRuntime()
	tx := rt.Begin()
	o := tx.New(microCell)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += tx.ReadWord(o, microV)
	}
	b.StopTimer()
	_ = sink
	tx.Commit()
}

func BenchmarkTable6OwnedRead(b *testing.B) {
	rt := stm.NewRuntime()
	o := stm.NewCommitted(microCell)
	tx := rt.Begin()
	tx.ReadWord(o, microV) // acquire once
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += tx.ReadWord(o, microV)
	}
	b.StopTimer()
	_ = sink
	tx.Commit()
}

func BenchmarkTable6AcqRlsRead(b *testing.B) {
	rt := stm.NewRuntime()
	o := stm.NewCommitted(microCell)
	// Pre-init the lock slab.
	warm := rt.Begin()
	warm.ReadWord(o, microV)
	warm.Commit()
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := rt.Begin()
		sink += tx.ReadWord(o, microV)
		tx.Commit()
	}
	_ = sink
}

func BenchmarkTable6BaselineWrite(b *testing.B) {
	o := stm.NewCommitted(microCell)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.SetRawWord(microV, uint64(i))
	}
}

func BenchmarkTable6NewWrite(b *testing.B) {
	rt := stm.NewRuntime()
	tx := rt.Begin()
	o := tx.New(microCell)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.WriteWord(o, microV, uint64(i))
	}
	b.StopTimer()
	tx.Commit()
}

func BenchmarkTable6OwnedWrite(b *testing.B) {
	rt := stm.NewRuntime()
	o := stm.NewCommitted(microCell)
	tx := rt.Begin()
	tx.WriteWord(o, microV, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.WriteWord(o, microV, uint64(i))
	}
	b.StopTimer()
	tx.Commit()
}

func BenchmarkTable6AcqRlsWrite(b *testing.B) {
	rt := stm.NewRuntime()
	o := stm.NewCommitted(microCell)
	warm := rt.Begin()
	warm.WriteWord(o, microV, 0)
	warm.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := rt.Begin()
		tx.WriteWord(o, microV, uint64(i))
		tx.Commit()
	}
}

// BenchmarkAcquireBatch compares one k-word AcquireBatch (a sort, then
// the single-word path per word, then raw accesses) against k sequential
// single-word acquisitions over the same words. The two shapes run
// interleaved in chunks so machine drift cancels out of the comparison;
// the seq/batch metric is sequential time over batched time. The batch
// does the sequential shape's work plus its sort, so seq/batch below
// 1.0 is expected; it prices the global order. ns/op covers one
// transaction of each shape.
func BenchmarkAcquireBatch(b *testing.B) {
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("words=%d", k), func(b *testing.B) {
			rt := stm.NewRuntime()
			arr := stm.NewCommittedArray(stm.KindWord, k)
			// Pre-touch so lock slabs exist before the measured region.
			pre := rt.Begin()
			for i := 0; i < k; i++ {
				pre.ReadElem(arr, i)
			}
			pre.Commit()
			accs := make([]stm.BatchAccess, k)
			for i := range accs {
				accs[i] = stm.BatchAccess{Obj: arr, Index: i, IsElem: true, Write: true}
			}
			const chunk = 256
			var seqNs, batNs time.Duration
			b.ResetTimer()
			for done := 0; done < b.N; done += chunk {
				n := chunk
				if rest := b.N - done; rest < n {
					n = rest
				}
				t0 := time.Now()
				for r := 0; r < n; r++ {
					tx := rt.Begin()
					for i := 0; i < k; i++ {
						tx.WriteElem(arr, i, uint64(r))
					}
					tx.Commit()
				}
				t1 := time.Now()
				for r := 0; r < n; r++ {
					tx := rt.Begin()
					tx.AcquireBatch(accs)
					for i := 0; i < k; i++ {
						arr.SetRawElem(i, uint64(r))
					}
					tx.Commit()
				}
				seqNs += t1.Sub(t0)
				batNs += time.Since(t1)
			}
			b.ReportMetric(float64(seqNs)/float64(batNs), "seq/batch")
		})
	}
}

// ---- Ablations ----

// BenchmarkAblationFinalFields reproduces the §5.2 observation that the
// automatically inferred final fields cut Sunflow's sequential overhead
// (paper: −19.4%).
func BenchmarkAblationFinalFields(b *testing.B) {
	plain := workloads.Sunflow()
	final := workloads.SunflowFinal()
	inPlain := plain.Prepare(1)
	inFinal := final.Prepare(1)
	b.Run("sunflow/nonfinal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := core.New()
			plain.SBD(rt, inPlain, 1)
		}
	})
	b.Run("sunflow/final", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := core.New()
			final.SBD(rt, inFinal, 1)
		}
	})
}

// BenchmarkAblationQueueIsEmpty compares the Table 4 JCL modification:
// emptiness polling via the isEmpty flag vs. via the high-frequency size
// field (the latter acquires a lock that every enqueue/dequeue writes).
func BenchmarkAblationQueueIsEmpty(b *testing.B) {
	run := func(b *testing.B, viaSize bool) {
		rt := stm.NewRuntime()
		var q sbdcol.Queue
		tx := rt.Begin()
		q = sbdcol.NewQueue(tx)
		tx.Commit()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := rt.Begin()
			if viaSize {
				q.IsEmptyViaSize(tx)
			} else {
				q.IsEmpty(tx)
			}
			tx.Commit()
		}
	}
	b.Run("isEmptyFlag", func(b *testing.B) { run(b, false) })
	b.Run("viaSize", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationStringCache measures the Table 4 "disabled the cache
// in the string manager class" modification: with the cache on, every
// request writes one shared counter, serializing all server threads.
func BenchmarkAblationStringCache(b *testing.B) {
	plain := workloads.Tomcat()
	cached := workloads.TomcatCached()
	inPlain := plain.Prepare(1)
	inCached := cached.Prepare(1)
	b.Run("tomcat/cache-disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rt := core.New()
			plain.SBD(rt, inPlain, 4)
		}
	})
	b.Run("tomcat/cache-enabled", func(b *testing.B) {
		var snap stm.StatsSnapshot
		for i := 0; i < b.N; i++ {
			rt := core.New()
			cached.SBD(rt, inCached, 4)
			snap = rt.Stats().Snapshot()
		}
		b.ReportMetric(float64(snap.Acquire), "acquire/run")
	})
}

// BenchmarkAblationInevitable compares the two §3.4 strategies for
// external side effects under concurrency: buffered transactional
// wrappers (commit-time flush) vs. inevitable transactions (direct
// device writes, at most one inevitable transaction at a time). The
// wrapper variant lets sections overlap; the inevitable variant
// serializes every I/O-performing section on the token — watch the
// inevwaits metric and the per-op time gap grow with goroutines.
func BenchmarkAblationInevitable(b *testing.B) {
	const writers = 8
	run := func(b *testing.B, inevitable bool) {
		rt := core.New()
		wrapped := txio.NewWriter(discard{})
		direct := txio.NewInevitableWriter(discard{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Main(func(th *core.Thread) {
				var kids []*core.Thread
				for wk := 0; wk < writers; wk++ {
					kids = append(kids, th.Go("w", func(c *core.Thread) {
						for j := 0; j < 20; j++ {
							c.AtomicSplit(func(tx *stm.Tx) {
								if inevitable {
									direct.WriteString(tx, "line of output\n") //nolint:errcheck
								} else {
									wrapped.Printf(tx, "line of output\n")
								}
							})
						}
					}))
				}
				for _, k := range kids {
					th.Join(k)
				}
			})
		}
		b.ReportMetric(float64(rt.Stats().Snapshot().InevWaits)/float64(b.N), "inevwaits/op")
	}
	b.Run("wrappers", func(b *testing.B) { run(b, false) })
	b.Run("inevitable", func(b *testing.B) { run(b, true) })
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkAblationCompilerPasses interprets the sbdc web-shop program
// with the optimization passes on and off (the §3.3 ablation): the
// optimized program executes fewer full lock operations against the real
// STM.
func BenchmarkAblationCompilerPasses(b *testing.B) {
	build := func() *instrument.Program {
		p := instrument.NewProgram()
		p.AddClass("Article", "available", "reserved")
		p.AddMethod(&instrument.Method{
			Name: "pos", Params: []string{"a"}, ParamClasses: []string{"Article"},
			Body: &instrument.Block{Stmts: []instrument.Stmt{
				&instrument.Access{Var: "a", Field: "available"},
				&instrument.Access{Var: "a", Field: "available", Write: true},
				&instrument.Access{Var: "a", Field: "reserved", Write: true},
			}},
		})
		p.AddMethod(&instrument.Method{
			Name: "run", CanSplit: true, Params: []string{"art"}, ParamClasses: []string{"Article"},
			Body: &instrument.Block{Stmts: []instrument.Stmt{
				&instrument.Loop{Count: 64, Body: &instrument.Block{Stmts: []instrument.Stmt{
					&instrument.Call{Method: "pos", Args: []string{"art"}},
				}}},
				&instrument.Split{},
			}},
		})
		return p
	}
	for _, cfg := range []struct {
		name string
		opts instrument.Options
	}{
		{"unoptimized", instrument.NoOptimizations()},
		{"optimized", instrument.AllOptimizations()},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			p := build()
			if _, err := p.Transform(cfg.opts); err != nil {
				b.Fatal(err)
			}
			rt := stm.NewRuntime()
			interp := instrument.NewInterp(p, rt)
			cls := interp.ClassOf("Article")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := stm.NewCommitted(cls)
				if _, err := interp.Run("run", map[string]*stm.Object{"art": g},
					map[string]string{"art": "Article"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
