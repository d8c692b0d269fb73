package instrument

import (
	"strings"
	"testing"

	"repro/internal/stm"
)

// Tests for the beyond-the-paper passes: write-intent inference and
// interprocedural (deep) hoisting — plus the inliner's handling of
// HoistedLock pseudo-statements.

// TestHoistedLockRenamedThroughInline checks that expand() substitutes
// parameters and renames callee locals inside HoistedLock statements,
// exactly as it does for Access.
func TestHoistedLockRenamedThroughInline(t *testing.T) {
	p := NewProgram()
	p.AddClass("A", "f0", "f1")
	p.AddMethod(&Method{
		Name: "locker", Params: []string{"o"}, ParamClasses: []string{"A"},
		Body: &Block{Stmts: []Stmt{
			&HoistedLock{Var: "o", Field: "f0", Write: true},
			&New{Dst: "tmp", Class: "A"},
			&HoistedLock{Var: "tmp", Field: "f1"},
		}},
	})
	p.AddMethod(&Method{
		Name: "entry", Params: []string{"g"}, ParamClasses: []string{"A"},
		Body: &Block{Stmts: []Stmt{
			&Call{Method: "locker", Args: []string{"g"}},
		}},
	})
	if n := p.inlineAll(); n != 1 {
		t.Fatalf("inlined %d calls, want 1", n)
	}
	body := p.Methods["entry"].Body.Stmts
	if len(body) != 3 {
		t.Fatalf("inlined body has %d stmts, want 3: %#v", len(body), body)
	}
	h0, ok := body[0].(*HoistedLock)
	if !ok || h0.Var != "g" || h0.Field != "f0" || !h0.Write {
		t.Fatalf("param not substituted into hoisted lock: %#v", body[0])
	}
	nw, ok := body[1].(*New)
	if !ok || !strings.HasPrefix(nw.Dst, "$inl") {
		t.Fatalf("callee local not renamed: %#v", body[1])
	}
	h1, ok := body[2].(*HoistedLock)
	if !ok || h1.Var != nw.Dst {
		t.Fatalf("hoisted lock var %q does not track renamed local %q", h1.Var, nw.Dst)
	}
}

// TestDeepHoistLiftsThroughNestedLoops: without HoistDeep, a lock
// hoisted out of an inner loop still executes once per outer iteration;
// with it, the HoistedLock is lifted in front of the outer loop too.
func TestDeepHoistLiftsThroughNestedLoops(t *testing.T) {
	src := `
class A { f0 }
method entry(a A) {
  loop 5 {
    loop 4 {
      write a.f0
    }
  }
}
`
	shallow, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	stShallow, err := shallow.Transform(Options{Hoist: true})
	if err != nil {
		t.Fatal(err)
	}
	deep, _ := ParseProgram(src)
	stDeep, err := deep.Transform(Options{Hoist: true, HoistDeep: true})
	if err != nil {
		t.Fatal(err)
	}
	if stShallow.FullOps != 5 {
		t.Fatalf("shallow FullOps = %d, want 5 (hoisted lock re-runs per outer iteration)", stShallow.FullOps)
	}
	if stDeep.FullOps != 1 {
		t.Fatalf("deep FullOps = %d, want 1 (lock lifted out of both loops)", stDeep.FullOps)
	}
	if h, ok := deep.Methods["entry"].Body.Stmts[0].(*HoistedLock); !ok || h.Var != "a" {
		t.Fatalf("first stmt of deep-hoisted body is %#v, want the lifted HoistedLock",
			deep.Methods["entry"].Body.Stmts[0])
	}
}

// TestDeepHoistFromNoSplitBody: accesses inside a noSplit composition
// are must-execute, so HoistDeep hoists them out of the enclosing loop.
func TestDeepHoistFromNoSplitBody(t *testing.T) {
	src := `
class A { f0 }
method entry(a A) {
  loop 6 {
    nosplit {
      write a.f0
    }
  }
}
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Transform(Options{Hoist: true, HoistDeep: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.FullOps != 1 {
		t.Fatalf("FullOps = %d, want 1 (nosplit access hoisted)", st.FullOps)
	}
}

// TestInferIntentMarksUpgradedReads covers the positive case and the
// kill conditions: a split or a receiver rebinding between read and
// write defeats the inference.
func TestInferIntentMarksUpgradedReads(t *testing.T) {
	src := `
class A { f0, f1 }
method entry(a A) canSplit {
  read a.f0
  write a.f1
  write a.f0
  read a.f1
  split
  write a.f1
}
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Transform(Options{InferIntent: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.IntentInferred != 1 {
		t.Fatalf("IntentInferred = %d, want 1 (only the pre-split upgraded read)", st.IntentInferred)
	}
	body := p.Methods["entry"].Body.Stmts
	if a := body[0].(*Access); !a.WriteIntent {
		t.Fatal("read a.f0 not marked WriteIntent despite certain later write")
	}
	if a := body[3].(*Access); a.WriteIntent {
		t.Fatal("read a.f1 marked WriteIntent across a split")
	}

	// Rebinding the receiver between read and write kills the pattern.
	src2 := `
class A { f0 }
method entry(a A) {
  read a.f0
  new a A
  write a.f0
}
`
	p2, _ := ParseProgram(src2)
	st2, err := p2.Transform(Options{InferIntent: true})
	if err != nil {
		t.Fatal(err)
	}
	if st2.IntentInferred != 0 {
		t.Fatalf("IntentInferred = %d after receiver rebinding, want 0", st2.IntentInferred)
	}
}

// TestIntentReachesRuntime: a WriteIntent read goes through
// Tx.ReadWordForWrite, which shows up in the runtime's IntentHints
// counter and leaves the later write a free owned-check (no second
// acquire).
func TestIntentReachesRuntime(t *testing.T) {
	src := `
class A { f0 }
method entry(a A) {
  read a.f0
  write a.f0
}
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform(Options{InferIntent: true}); err != nil {
		t.Fatal(err)
	}
	rt := stm.NewRuntime()
	in := NewInterp(p, rt)
	a := stm.NewCommitted(in.ClassOf("A"))
	if _, err := in.Run("entry",
		map[string]*stm.Object{"a": a}, map[string]string{"a": "A"}); err != nil {
		t.Fatal(err)
	}
	snap := rt.Stats().Snapshot()
	if snap.IntentHints != 1 {
		t.Fatalf("IntentHints = %d, want 1", snap.IntentHints)
	}
	if snap.Acquire != 1 {
		t.Fatalf("Acquire = %d, want 1 (the write upgrades for free)", snap.Acquire)
	}
	// The write (a locked read-modify-write in the interpreter) finds the
	// mode already held both times.
	if snap.CheckOwned != 2 {
		t.Fatalf("CheckOwned = %d, want 2", snap.CheckOwned)
	}
}

// TestCompiledReadLoopReadsInvisibly: the un-hoistable array reads of
// a compiled loop (sbdc's "loops" program) go through the runtime's
// per-access path, so once the sites have warmed up they are served by
// the invisible read tier instead of taking a visible lock each.
func TestCompiledReadLoopReadsInvisibly(t *testing.T) {
	const n = 200
	src := `
class Acc { total }
method sum(acc Acc, arr, weights) {
  loop 200 i {
    read arr[i]
    read weights[i]
    write acc.total
  }
}
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform(AllOptimizations()); err != nil {
		t.Fatal(err)
	}
	rt := stm.NewRuntime()
	in := NewInterp(p, rt)
	args := map[string]*stm.Object{
		"acc":     stm.NewCommitted(in.ClassOf("Acc")),
		"arr":     stm.NewCommittedArray(stm.KindWord, n),
		"weights": stm.NewCommittedArray(stm.KindWord, n),
	}
	classes := map[string]string{"acc": "Acc"}
	run := func() {
		if _, err := in.Run("sum", args, classes); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: the read sites learn their mode
	before := rt.Stats().Snapshot()
	run()
	after := rt.Stats().Snapshot()
	if got := after.InvisReads - before.InvisReads; got < 2*n {
		t.Errorf("InvisReads grew by %d, want at least %d (both arrays read invisibly)", got, 2*n)
	}
	if got := after.Acquire - before.Acquire; got >= 10 {
		t.Errorf("Acquire grew by %d per run, want < 10 (reads must not take visible locks)", got)
	}
}
