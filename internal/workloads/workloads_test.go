package workloads

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/render"
)

// TestVariantsAgree is the reproduction's core validation: for every
// benchmark, the explicit-synchronization baseline and the SBD variant
// must compute the same result at every thread count.
func TestVariantsAgree(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			in := w.Prepare(1)
			for _, threads := range []int{1, 2, 4} {
				n := w.Threads(threads)
				base := w.Baseline(in, n)
				rt := core.New()
				sbd := w.SBD(rt, in, n)
				if base != sbd {
					t.Fatalf("%s@%d: baseline=%x sbd=%x", w.Name, n, base, sbd)
				}
				s := rt.Stats().Snapshot()
				if s.Commits == 0 {
					t.Fatalf("%s@%d: SBD variant committed nothing", w.Name, n)
				}
			}
		})
	}
}

func TestBaselineDeterministic(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			in := w.Prepare(1)
			n := w.Threads(2)
			a := w.Baseline(in, n)
			b := w.Baseline(in, n)
			if a != b {
				t.Fatalf("%s: baseline not deterministic: %x vs %x", w.Name, a, b)
			}
		})
	}
}

func TestSBDDeterministicAcrossThreadCounts(t *testing.T) {
	// For the workloads whose result is thread-count-independent, the
	// checksum must not change with the worker count.
	for _, name := range []string{"pmd", "sunflow", "luindex"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in := w.Prepare(1)
		base := w.Baseline(in, w.Threads(1))
		for _, threads := range []int{2, 4} {
			rt := core.New()
			if got := w.SBD(rt, in, w.Threads(threads)); got != base {
				t.Fatalf("%s@%d: result depends on thread count", name, threads)
			}
		}
	}
}

// One-thread lusearch runs are repeatable in Table 8's memory columns:
// the term dictionary is filled in one fixed order, so every run builds
// the same bucket chains and read-locks the same entries per lookup. At
// scale 8 the lookups also take biased reads, and one whose reader-slot
// stripe (a hash of the word's heap address) collides with another in
// the same transaction falls back to a visible acquire. So the split
// between Acquire and BiasGrants, and with it the R-W set bytes, follows
// heap layout there; their sum, CheckNew and Commits still repeat.
func TestLuSearchMemoryRepeatable(t *testing.T) {
	w := LuSearch()
	type counts struct{ locks, rwset, reads, checkNew, commits uint64 }
	for _, scale := range []int{1, 8} {
		var first counts
		for run := 0; run < 3; run++ {
			rt := core.New()
			w.SBD(rt, w.Prepare(scale), 1)
			s := rt.Stats().Snapshot()
			c := counts{locks: s.LockBytes, reads: s.Acquire + s.BiasGrants, checkNew: s.CheckNew, commits: s.Commits}
			if scale == 1 {
				c.rwset = s.RWSetBytes
			}
			if run == 0 {
				first = c
			} else if c != first {
				t.Fatalf("scale %d, run %d: %+v, run 0: %+v", scale, run, c, first)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("expected the six DaCapo benchmarks, got %d", len(all))
	}
	want := []string{"luindex", "lusearch", "pmd", "sunflow", "h2", "tomcat"}
	for i, name := range want {
		if all[i].Name != name {
			t.Fatalf("order: got %s at %d, want %s", all[i].Name, i, name)
		}
		w, err := ByName(name)
		if err != nil || w.Name != name {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if w.Effort.LOC == 0 {
			t.Fatalf("%s has no effort metadata", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown benchmark")
	}
}

func TestThreadsClamp(t *testing.T) {
	li, _ := ByName("luindex")
	if li.Threads(32) != 2 {
		t.Fatal("luindex must pin 2 threads (main/worker model)")
	}
	pm, _ := ByName("pmd")
	if pm.Threads(0) != 1 || pm.Threads(8) != 8 {
		t.Fatal("thread clamp wrong")
	}
}

func TestSunflowFinalAblationAgrees(t *testing.T) {
	w := SunflowFinal()
	in := w.Prepare(1)
	base := Sunflow().Baseline(Sunflow().Prepare(1), 2)
	rt := core.New()
	if got := w.SBD(rt, in, 2); got != base {
		t.Fatalf("final-field ablation changed the image: %x vs %x", got, base)
	}
	// Final fields must eliminate scene lock traffic relative to the
	// non-final variant.
	finalAcq := rt.Stats().Snapshot().Acquire
	rt2 := core.New()
	Sunflow().SBD(rt2, Sunflow().Prepare(1), 2)
	if plainAcq := rt2.Stats().Snapshot().Acquire; plainAcq <= finalAcq {
		t.Fatalf("final fields did not reduce acquisitions: %d vs %d", finalAcq, plainAcq)
	}
}

func TestSunflowProducesAborts(t *testing.T) {
	// The shared row cursor's read-then-write makes workers duel on the
	// upgrade; with several threads the abort counter must move (the
	// paper's Sunflow abort-rate signature).
	if runtime.NumCPU() < 2 {
		// Upgrade duels need two claim sections overlapping in real time;
		// on a single CPU goroutines time-share and microsecond windows
		// never overlap. The duel mechanism itself is deterministically
		// covered by stm.TestDuelingUpgradeAbortsYounger.
		t.Skip("needs >= 2 CPUs for real overlap")
	}
	w, _ := ByName("sunflow")
	// A narrow, tall image makes row claims dominate: workers hit the
	// shared cursor back to back, overlapping read locks that duel on
	// the upgrade.
	in := &sunflowInput{scene: render.GenScene(4, 0x5CE7E), w: 2, h: 600}
	// A run aborts only if two claims overlap in real time before adaptive
	// promotion has learned the site, which takes a few duels; some runs
	// see none. Search by attempts and time, not by a handful of tries.
	var aborts uint64
	tries, deadline := 0, time.Now().Add(5*time.Second)
	for ; tries < 200 && aborts == 0 && time.Now().Before(deadline); tries++ {
		rt := core.New()
		w.SBD(rt, in, 8)
		aborts = rt.Stats().Snapshot().Aborts
	}
	if aborts == 0 {
		t.Fatalf("sunflow never aborted across %d claim-heavy runs at 8 threads", tries)
	}
}

func TestTomcatCachedAblationAgrees(t *testing.T) {
	w := TomcatCached()
	in := w.Prepare(1)
	base := Tomcat().Baseline(Tomcat().Prepare(1), 2)
	rt := core.New()
	if got := w.SBD(rt, in, 2); got != base {
		t.Fatalf("cached string manager changed responses: %x vs %x", got, base)
	}
	cachedAcq := rt.Stats().Snapshot().Acquire

	rt2 := core.New()
	Tomcat().SBD(rt2, Tomcat().Prepare(1), 2)
	plainAcq := rt2.Stats().Snapshot().Acquire
	if cachedAcq <= plainAcq {
		t.Fatalf("enabled cache did not add shared-lock traffic: %d vs %d", cachedAcq, plainAcq)
	}
}

func TestH2LowStatsProfile(t *testing.T) {
	// H2 spends its time in the database: the SBD lock-operation counts
	// must be small relative to PMD's tree-heavy profile (Table 7 shape).
	h2w, _ := ByName("h2")
	rtH2 := core.New()
	h2w.SBD(rtH2, h2w.Prepare(1), 4)
	h2Ops := rtH2.Stats().Snapshot()

	pmdw, _ := ByName("pmd")
	rtPmd := core.New()
	pmdw.SBD(rtPmd, pmdw.Prepare(1), 4)
	pmdOps := rtPmd.Stats().Snapshot()

	if h2Ops.CheckNew > pmdOps.CheckNew {
		t.Fatalf("H2 CheckNew (%d) should be far below PMD's (%d)", h2Ops.CheckNew, pmdOps.CheckNew)
	}
}

func TestTomcatServesEveryRequest(t *testing.T) {
	w, _ := ByName("tomcat")
	in := w.Prepare(1).(*tomcatInput)
	rt := core.New()
	w.SBD(rt, in, 3)
	// 3 clients × reqPerClient requests must all have committed:
	// at least one commit per request on each side.
	s := rt.Stats().Snapshot()
	if s.Commits < uint64(2*3*in.reqPerClient) {
		t.Fatalf("commits = %d, want >= %d", s.Commits, 2*3*in.reqPerClient)
	}
}

func TestLuIndexWritesIndexFileTransactionally(t *testing.T) {
	// The index file is produced in a single transaction: the buffer
	// accounting must register its size (Table 8: LuIndex's buffers).
	w, _ := ByName("luindex")
	rt := core.New()
	w.SBD(rt, w.Prepare(1), 2)
	if rt.Stats().Snapshot().BufferBytes == 0 {
		t.Fatal("no transactional I/O buffering recorded")
	}
}
