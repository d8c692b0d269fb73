package instrument

import (
	"strings"
	"testing"
)

func TestPrintProgramRoundTripsThroughParser(t *testing.T) {
	p, err := ParseProgram(webshopIR)
	if err != nil {
		t.Fatal(err)
	}
	text := PrintProgram(p)
	back, err := ParseProgram(text)
	if err != nil {
		t.Fatalf("printed program does not re-parse: %v\n%s", err, text)
	}
	if len(back.Classes) != len(p.Classes) || len(back.Methods) != len(p.Methods) {
		t.Fatal("round trip lost declarations")
	}
	// Same optimization results on both.
	st1, _ := p.Transform(AllOptimizations())
	st2, _ := back.Transform(AllOptimizations())
	if st1.ChecksRemoved != st2.ChecksRemoved || st1.LocksHoisted != st2.LocksHoisted {
		t.Fatalf("round trip changed analysis: %+v vs %+v", st1, st2)
	}
}

func TestPrintProgramShowsAnnotations(t *testing.T) {
	p, err := ParseProgram(webshopIR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform(AllOptimizations()); err != nil {
		t.Fatal(err)
	}
	text := PrintProgram(p)
	for _, want := range []string{
		"# final: no synchronization", // read a.price
		"# elided: lock hoisted",      // in-loop article accesses
		"lock write art.available",    // the hoisted lock itself
		"# full",                      // stats.processed write
	} {
		if !strings.Contains(text, want) {
			t.Errorf("printed program missing %q:\n%s", want, text)
		}
	}
}

func TestPrintProgramAnnotatedTransformedParses(t *testing.T) {
	// The annotated output contains HoistedLock pseudo-statements as
	// comments... no: `lock` lines. Printed TRANSFORMED programs are for
	// humans; they re-parse only when untransformed. Verify the
	// untransformed invariant and that the transformed print is non-empty.
	p, _ := ParseProgram(webshopIR)
	if _, err := p.Transform(AllOptimizations()); err != nil {
		t.Fatal(err)
	}
	if len(PrintProgram(p)) == 0 {
		t.Fatal("empty print")
	}
}

func TestSuggestFinalsAndCanSplit(t *testing.T) {
	src := `
class Node { key, weight, mutable }
constructor Node.init(this Node) {
  write this.key
  write this.weight
}
method touch(n Node) {
  write n.mutable
}
method helper() {
  split
}
method outer() {
  call helper()
}
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	sugg := Suggest(p)
	byKind := map[string][]string{}
	for _, s := range sugg {
		byKind[s.Kind] = append(byKind[s.Kind], s.Target)
		if s.Reason == "" {
			t.Errorf("suggestion %v without reason", s)
		}
	}
	wantFinals := map[string]bool{"Node.key": true, "Node.weight": true}
	if len(byKind["final"]) != 2 {
		t.Fatalf("final suggestions %v, want key+weight", byKind["final"])
	}
	for _, tgt := range byKind["final"] {
		if !wantFinals[tgt] {
			t.Fatalf("unexpected final suggestion %s", tgt)
		}
	}
	wantSplit := map[string]bool{"helper": true, "outer": true}
	if len(byKind["canSplit"]) != 2 {
		t.Fatalf("canSplit suggestions %v, want helper+outer", byKind["canSplit"])
	}
	for _, tgt := range byKind["canSplit"] {
		if !wantSplit[tgt] {
			t.Fatalf("unexpected canSplit suggestion %s", tgt)
		}
	}
	// Suggest must not mutate the program.
	if p.Classes["Node"].Field("key").Final {
		t.Fatal("Suggest mutated field finality")
	}
}

func TestSuggestQuietOnCleanProgram(t *testing.T) {
	p := figure2Program(false)
	for _, s := range Suggest(p) {
		if s.Kind == "canSplit" {
			t.Fatalf("spurious canSplit suggestion: %+v", s)
		}
	}
}
