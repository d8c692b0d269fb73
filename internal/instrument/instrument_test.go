package instrument

import (
	"testing"

	"repro/internal/stm"
)

// figure2Program builds the shape of paper Figure 2: processPosition
// touches article fields, processRequest loops over items, run loops
// over requests with a split per request.
func figure2Program(withInnerSplit bool) *Program {
	p := NewProgram()
	p.AddClass("Article", "available", "reserved")
	p.AddClass("Stats", "processed")

	inner := &Block{Stmts: []Stmt{
		&Access{Var: "a", Field: "available"},              // read
		&Access{Var: "a", Field: "available", Write: true}, // write (upgrade)
		&Access{Var: "a", Field: "reserved", Write: true},
	}}
	p.AddMethod(&Method{
		Name: "processPosition", Params: []string{"a"},
		ParamClasses: []string{"Article"}, Body: inner,
	})

	reqBody := &Block{Stmts: []Stmt{
		&Loop{Count: 4, Body: &Block{Stmts: []Stmt{
			&Call{Method: "processPosition", Args: []string{"art"}},
		}}},
	}}
	if withInnerSplit {
		loop := reqBody.Stmts[0].(*Loop)
		loop.Body.Stmts = append(loop.Body.Stmts, &Split{})
	}
	p.AddMethod(&Method{
		Name: "processRequest", CanSplit: withInnerSplit,
		Params: []string{"art"}, ParamClasses: []string{"Article"},
		Body: reqBody,
	})

	runBody := &Block{Stmts: []Stmt{
		&Loop{Count: 10, Body: &Block{Stmts: []Stmt{
			&Call{Method: "processRequest", Args: []string{"art"}, AllowSplit: withInnerSplit},
			&Access{Var: "stats", Field: "processed", Write: true},
			&Split{},
		}}},
	}}
	p.AddMethod(&Method{
		Name: "run", CanSplit: true,
		Params: []string{"art", "stats"}, ParamClasses: []string{"Article", "Stats"},
		Body: runBody,
	})
	return p
}

func TestCheckRules(t *testing.T) {
	// split without canSplit
	p := NewProgram()
	p.AddMethod(&Method{Name: "m", Body: &Block{Stmts: []Stmt{&Split{}}}})
	if err := p.Check(); err == nil {
		t.Fatal("split in non-canSplit method accepted")
	}

	// canSplit call without allowSplit
	p2 := NewProgram()
	p2.AddMethod(&Method{Name: "s", CanSplit: true, Body: &Block{Stmts: []Stmt{&Split{}}}})
	p2.AddMethod(&Method{Name: "caller", CanSplit: true, Body: &Block{
		Stmts: []Stmt{&Call{Method: "s"}},
	}})
	if err := p2.Check(); err == nil {
		t.Fatal("canSplit call without allowSplit accepted")
	}

	// canSplit call from non-canSplit method
	p3 := NewProgram()
	p3.AddMethod(&Method{Name: "s", CanSplit: true, Body: &Block{Stmts: []Stmt{&Split{}}}})
	p3.AddMethod(&Method{Name: "caller", Body: &Block{
		Stmts: []Stmt{&Call{Method: "s", AllowSplit: true}},
	}})
	if err := p3.Check(); err == nil {
		t.Fatal("canSplit call from non-canSplit method accepted")
	}

	// unknown callee
	p4 := NewProgram()
	p4.AddMethod(&Method{Name: "m", Body: &Block{Stmts: []Stmt{&Call{Method: "ghost"}}}})
	if err := p4.Check(); err == nil {
		t.Fatal("unknown callee accepted")
	}

	// arity mismatch
	p5 := NewProgram()
	p5.AddMethod(&Method{Name: "f", Params: []string{"x"}, Body: &Block{}})
	p5.AddMethod(&Method{Name: "m", Body: &Block{Stmts: []Stmt{&Call{Method: "f"}}}})
	if err := p5.Check(); err == nil {
		t.Fatal("arity mismatch accepted")
	}

	// well-formed program passes
	if err := figure2Program(false).Check(); err != nil {
		t.Fatalf("figure-2 program rejected: %v", err)
	}
}

func TestConstructorCannotCanSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("canSplit constructor accepted")
		}
	}()
	NewProgram().AddMethod(&Method{Name: "ctor", Constructor: true, CanSplit: true})
}

func TestMaySplit(t *testing.T) {
	p := figure2Program(true)
	if !p.MaySplit("run") || !p.MaySplit("processRequest") {
		t.Fatal("splitting methods not detected")
	}
	if p.MaySplit("processPosition") {
		t.Fatal("non-splitting method flagged")
	}
	if p.MaySplit("ghost") {
		t.Fatal("unknown method flagged")
	}
}

func TestFinalInference(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "initOnly", "mutable")
	p.AddMethod(&Method{
		Name: "C.init", Class: "C", Constructor: true,
		Body: &Block{Stmts: []Stmt{
			&Access{Var: "this", Field: "initOnly", Write: true},
			&Access{Var: "this", Field: "mutable", Write: true},
		}},
	})
	p.AddMethod(&Method{
		Name: "use", Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&Access{Var: "c", Field: "mutable", Write: true},
			&Access{Var: "c", Field: "initOnly"},
		}},
	})
	st, err := p.Transform(Options{InferFinals: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalsInferred != 1 {
		t.Fatalf("FinalsInferred = %d, want 1", st.FinalsInferred)
	}
	c := p.Classes["C"]
	if !c.Field("initOnly").Final || !c.Field("initOnly").Inferred {
		t.Fatal("initOnly not inferred final")
	}
	if c.Field("mutable").Final {
		t.Fatal("mutable wrongly inferred final")
	}
	// The read of the inferred-final field needs no synchronization.
	use := p.Methods["use"]
	read := use.Body.Stmts[1].(*Access)
	if !read.FinalAccess {
		t.Fatal("final access not annotated")
	}
}

func TestRedundantCheckElimination(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f")
	p.AddMethod(&Method{
		Name: "m", Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&Access{Var: "c", Field: "f", Write: true}, // full
			&Access{Var: "c", Field: "f"},              // read after write: redundant
			&Access{Var: "c", Field: "f", Write: true}, // write after write: redundant
		}},
	})
	st, err := p.Transform(Options{EliminateRedun: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChecksRemoved != 2 {
		t.Fatalf("ChecksRemoved = %d, want 2", st.ChecksRemoved)
	}
	b := p.Methods["m"].Body.Stmts
	if !b[0].(*Access).NeedsLockOp || b[1].(*Access).NeedsLockOp || b[2].(*Access).NeedsLockOp {
		t.Fatal("annotations wrong")
	}
}

func TestReadThenWriteIsNotRedundant(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f")
	p.AddMethod(&Method{
		Name: "m", Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&Access{Var: "c", Field: "f"},              // read: full
			&Access{Var: "c", Field: "f", Write: true}, // upgrade: NOT redundant
		}},
	})
	st, _ := p.Transform(Options{EliminateRedun: true})
	if st.ChecksRemoved != 0 {
		t.Fatalf("upgrade wrongly eliminated (removed=%d)", st.ChecksRemoved)
	}
}

func TestSplitKillsFacts(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f")
	p.AddMethod(&Method{
		Name: "m", CanSplit: true, Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&Access{Var: "c", Field: "f", Write: true},
			&Split{},
			&Access{Var: "c", Field: "f", Write: true}, // must stay full
		}},
	})
	st, _ := p.Transform(Options{EliminateRedun: true, CombineNew: true})
	if st.ChecksRemoved != 0 || st.NewChecksMerged != 0 {
		t.Fatalf("facts survived a split: removed=%d merged=%d", st.ChecksRemoved, st.NewChecksMerged)
	}
}

func TestNonCanSplitCallPreservesFacts(t *testing.T) {
	// The canSplit property at work: a callee that cannot split keeps
	// the caller's locked set alive across the call.
	p := NewProgram()
	p.AddClass("C", "f", "g")
	p.AddMethod(&Method{
		Name: "helper", Params: []string{"x"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{&Access{Var: "x", Field: "g"}}},
	})
	p.AddMethod(&Method{
		Name: "splitter", CanSplit: true,
		Params: []string{"x"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{&Split{}}},
	})
	p.AddMethod(&Method{
		Name: "m", CanSplit: true, Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&Access{Var: "c", Field: "f", Write: true},
			&Call{Method: "helper", Args: []string{"c"}},
			&Access{Var: "c", Field: "f", Write: true}, // redundant: helper can't split
			&Call{Method: "splitter", Args: []string{"c"}, AllowSplit: true},
			&Access{Var: "c", Field: "f", Write: true}, // full again
		}},
	})
	st, err := p.Transform(Options{EliminateRedun: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChecksRemoved != 1 {
		t.Fatalf("ChecksRemoved = %d, want 1", st.ChecksRemoved)
	}
	b := p.Methods["m"].Body.Stmts
	if b[2].(*Access).NeedsLockOp {
		t.Fatal("access after non-canSplit call kept its lock op")
	}
	if !b[4].(*Access).NeedsLockOp {
		t.Fatal("access after canSplit call lost its lock op")
	}
}

func TestIfJoinIntersects(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f", "g")
	p.AddMethod(&Method{
		Name: "m", Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&If{
				Then: &Block{Stmts: []Stmt{&Access{Var: "c", Field: "f", Write: true}}},
				Else: &Block{Stmts: []Stmt{&Access{Var: "c", Field: "g", Write: true}}},
			},
			&Access{Var: "c", Field: "f", Write: true}, // only locked on one path: full
		}},
	})
	st, _ := p.Transform(Options{EliminateRedun: true})
	if st.ChecksRemoved != 0 {
		t.Fatalf("one-path lock treated as both-path (removed=%d)", st.ChecksRemoved)
	}

	// Locked on both paths → removable after the join.
	p2 := NewProgram()
	p2.AddClass("C", "f")
	p2.AddMethod(&Method{
		Name: "m", Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&If{
				Then: &Block{Stmts: []Stmt{&Access{Var: "c", Field: "f", Write: true}}},
				Else: &Block{Stmts: []Stmt{&Access{Var: "c", Field: "f", Write: true}}},
			},
			&Access{Var: "c", Field: "f", Write: true},
		}},
	})
	st2, _ := p2.Transform(Options{EliminateRedun: true})
	if st2.ChecksRemoved != 1 {
		t.Fatalf("both-path lock not eliminated (removed=%d)", st2.ChecksRemoved)
	}
}

func TestLoopCarriedRedundancy(t *testing.T) {
	// Without hoisting, the dataflow fixpoint alone cannot remove the
	// first iteration's lock, so the access stays full; with hoisting the
	// lock moves out and the in-loop access becomes raw.
	build := func() *Program {
		p := NewProgram()
		p.AddClass("C", "f")
		p.AddMethod(&Method{
			Name: "m", Params: []string{"c"}, ParamClasses: []string{"C"},
			Body: &Block{Stmts: []Stmt{
				&Loop{Count: 8, Body: &Block{Stmts: []Stmt{
					&Access{Var: "c", Field: "f", Write: true},
				}}},
			}},
		})
		return p
	}

	noHoist := build()
	st, _ := noHoist.Transform(Options{EliminateRedun: true})
	if st.FullOps != 8 {
		t.Fatalf("without hoisting FullOps = %d, want 8", st.FullOps)
	}

	hoisted := build()
	st2, _ := hoisted.Transform(Options{EliminateRedun: true, Hoist: true})
	if st2.LocksHoisted != 1 {
		t.Fatalf("LocksHoisted = %d, want 1", st2.LocksHoisted)
	}
	if st2.FullOps != 1 || st2.RawOps != 8 {
		t.Fatalf("hoisted counts: full=%d raw=%d, want 1/8", st2.FullOps, st2.RawOps)
	}
}

func TestNoHoistAcrossSplit(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f")
	p.AddMethod(&Method{
		Name: "m", CanSplit: true, Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&Loop{Count: 8, Body: &Block{Stmts: []Stmt{
				&Access{Var: "c", Field: "f", Write: true},
				&Split{},
			}}},
		}},
	})
	st, _ := p.Transform(Options{EliminateRedun: true, Hoist: true})
	if st.LocksHoisted != 0 {
		t.Fatal("lock hoisted out of a splitting loop")
	}
	if st.FullOps != 8 {
		t.Fatalf("FullOps = %d, want 8", st.FullOps)
	}
}

func TestNoHoistVaryingArrayIndex(t *testing.T) {
	p := NewProgram()
	p.AddMethod(&Method{
		Name: "m", Params: []string{"a"},
		Body: &Block{Stmts: []Stmt{
			&Loop{Count: 8, IdxVar: "i", Body: &Block{Stmts: []Stmt{
				&Access{Var: "a", IsArray: true, Index: "i", Write: true},
			}}},
		}},
	})
	st, _ := p.Transform(Options{EliminateRedun: true, Hoist: true})
	if st.LocksHoisted != 0 {
		t.Fatal("varying array element hoisted")
	}
}

func TestNewCheckCombining(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f", "g")
	p.AddMethod(&Method{
		Name: "m", Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&Access{Var: "c", Field: "f", Write: true}, // first: new check + lock
			&Access{Var: "c", Field: "g", Write: true}, // same instance: new check combined
		}},
	})
	st, _ := p.Transform(Options{CombineNew: true})
	if st.NewChecksMerged != 1 {
		t.Fatalf("NewChecksMerged = %d, want 1", st.NewChecksMerged)
	}
	b := p.Methods["m"].Body.Stmts
	if !b[0].(*Access).NeedsNewCheck || b[1].(*Access).NeedsNewCheck {
		t.Fatal("new-check annotations wrong")
	}
	if !b[1].(*Access).NeedsLockOp {
		t.Fatal("combining must not remove the lock op (different field)")
	}
}

func TestRebindKillsFacts(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f")
	p.AddMethod(&Method{
		Name: "m", Params: []string{"c", "d"}, ParamClasses: []string{"C", "C"},
		Body: &Block{Stmts: []Stmt{
			&Access{Var: "c", Field: "f", Write: true},
			&Assign{Dst: "c", Src: "d"},
			&Access{Var: "c", Field: "f", Write: true}, // different object now
		}},
	})
	st, _ := p.Transform(Options{EliminateRedun: true, CombineNew: true})
	if st.ChecksRemoved != 0 || st.NewChecksMerged != 0 {
		t.Fatal("facts survived a rebinding")
	}
}

func TestInliningEnablesElimination(t *testing.T) {
	// Figure 2 without inner splits: the optimizations are
	// intraprocedural, so the repeated article locks inside
	// processPosition only become hoistable/removable once inlining has
	// pulled them into the caller's loop (paper §3.3: "They benefit from
	// method inlining").
	build := func(inline bool) (Stats, int) {
		p := figure2Program(false)
		st, err := p.Transform(Options{
			EliminateRedun: true, Hoist: true, CombineNew: true,
			Inline: inline,
		})
		if err != nil {
			t.Fatal(err)
		}
		full, _, _ := p.MethodOps("run")
		return st, full
	}
	without, fullWithout := build(false)
	with, fullWith := build(true)
	if with.CallsInlined == 0 {
		t.Fatal("nothing inlined")
	}
	if without.LocksHoisted != 0 {
		t.Fatalf("hoisted %d locks without inlining; accesses should be hidden in callees",
			without.LocksHoisted)
	}
	if with.LocksHoisted == 0 {
		t.Fatal("inlining did not expose hoistable locks")
	}
	if fullWith >= fullWithout {
		t.Fatalf("inlining did not reduce executed full ops: %d vs %d", fullWith, fullWithout)
	}
}

func TestInlinerSkipsRecursion(t *testing.T) {
	p := NewProgram()
	p.AddMethod(&Method{Name: "a", Body: &Block{Stmts: []Stmt{&Call{Method: "b"}}}})
	p.AddMethod(&Method{Name: "b", Body: &Block{Stmts: []Stmt{&Call{Method: "a"}}}})
	st, err := p.Transform(Options{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.CallsInlined != 0 {
		t.Fatalf("recursive methods inlined %d times", st.CallsInlined)
	}
}

func TestInlinerRespectsBudget(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f")
	big := &Block{}
	for i := 0; i < 30; i++ {
		big.Stmts = append(big.Stmts, &Access{Var: "x", Field: "f"})
	}
	p.AddMethod(&Method{Name: "big", Params: []string{"x"}, ParamClasses: []string{"C"}, Body: big})
	p.AddMethod(&Method{Name: "m", Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{&Call{Method: "big", Args: []string{"c"}}}}})
	st, _ := p.Transform(Options{Inline: true})
	if st.CallsInlined != 0 {
		t.Fatal("oversized callee inlined")
	}
}

// TestDifferentialHeaps runs the same program optimized and unoptimized
// against the real STM and compares the resulting heaps: the passes must
// not change behaviour, only remove synchronization.
func TestDifferentialHeaps(t *testing.T) {
	build := func() *Program {
		p := NewProgram()
		p.AddClass("Acc", "bal", "cnt")
		p.AddMethod(&Method{
			Name: "bump", Params: []string{"a"}, ParamClasses: []string{"Acc"},
			Body: &Block{Stmts: []Stmt{
				&Access{Var: "a", Field: "bal", Write: true},
				&Access{Var: "a", Field: "bal", Write: true},
				&Access{Var: "a", Field: "cnt", Write: true},
			}},
		})
		p.AddMethod(&Method{
			Name: "main", CanSplit: true, Params: []string{"g"}, ParamClasses: []string{"Acc"},
			Body: &Block{Stmts: []Stmt{
				&Loop{Count: 5, Body: &Block{Stmts: []Stmt{
					&Call{Method: "bump", Args: []string{"g"}},
				}}},
				&Split{},
				&New{Dst: "tmp", Class: "Acc"},
				&Access{Var: "tmp", Field: "bal", Write: true},
				&Loop{Count: 3, Body: &Block{Stmts: []Stmt{
					&Access{Var: "g", Field: "cnt", Write: true},
				}}},
			}},
		})
		return p
	}
	accClass := func(in *Interp) *stm.Class { return in.classes["Acc"] }

	run := func(opts Options) (uint64, uint64, stm.StatsSnapshot) {
		p := build()
		if _, err := p.Transform(opts); err != nil {
			t.Fatal(err)
		}
		rt := stm.NewRuntime()
		in := NewInterp(p, rt)
		g := stm.NewCommitted(accClass(in))
		if _, err := in.Run("main", map[string]*stm.Object{"g": g},
			map[string]string{"g": "Acc"}); err != nil {
			t.Fatal(err)
		}
		bal := g.RawWord(accClass(in).Field("bal"))
		cnt := g.RawWord(accClass(in).Field("cnt"))
		return bal, cnt, rt.Stats().Snapshot()
	}

	balN, cntN, statsN := run(NoOptimizations())
	balO, cntO, statsO := run(AllOptimizations())
	if balN != balO || cntN != cntO {
		t.Fatalf("optimization changed behaviour: (%d,%d) vs (%d,%d)", balN, cntN, balO, cntO)
	}
	if statsO.Acquire+statsO.CheckOwned+statsO.CheckNew >=
		statsN.Acquire+statsN.CheckOwned+statsN.CheckNew {
		t.Fatalf("optimized run did not reduce lock operations: %+v vs %+v", statsO, statsN)
	}
}

func TestStatsCountsWeighted(t *testing.T) {
	p := NewProgram()
	p.AddClass("C", "f")
	p.AddMethod(&Method{
		Name: "m", Params: []string{"c"}, ParamClasses: []string{"C"},
		Body: &Block{Stmts: []Stmt{
			&Loop{Count: 10, Body: &Block{Stmts: []Stmt{
				&Loop{Count: 10, Body: &Block{Stmts: []Stmt{
					&Access{Var: "c", Field: "f"},
				}}},
			}}},
		}},
	})
	st, _ := p.Transform(NoOptimizations())
	if st.FullOps != 100 {
		t.Fatalf("weighted FullOps = %d, want 100", st.FullOps)
	}
}
