package instrument

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stm"
)

const webshopIR = `
# The paper's Figure 2 web shop in textual IR.
class Article { available, reserved, final price }
class Stats { processed }

method processPosition(a Article) {
  read a.available
  write a.available
  write a.reserved
  read a.price
}

method run(art Article, stats Stats) canSplit {
  loop 100 {
    loop 4 {
      call processPosition(art)
    }
    write stats.processed
    split
  }
}
`

func TestParseProgramWebshop(t *testing.T) {
	p, err := ParseProgram(webshopIR)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if len(p.Classes) != 2 || len(p.Methods) != 2 {
		t.Fatalf("parsed %d classes, %d methods", len(p.Classes), len(p.Methods))
	}
	art := p.Classes["Article"]
	if art.Field("price") == nil || !art.Field("price").Final {
		t.Fatal("final field not parsed")
	}
	if art.Field("available").Final {
		t.Fatal("non-final field marked final")
	}
	run := p.Methods["run"]
	if !run.CanSplit || len(run.Params) != 2 || run.ParamClasses[1] != "Stats" {
		t.Fatalf("run signature wrong: %+v", run)
	}
	outer, ok := run.Body.Stmts[0].(*Loop)
	if !ok || outer.Count != 100 {
		t.Fatalf("outer loop wrong: %+v", run.Body.Stmts[0])
	}
	if _, ok := outer.Body.Stmts[2].(*Split); !ok {
		t.Fatal("split not parsed")
	}

	// The parsed program transforms like the hand-built one.
	st, err := p.Transform(AllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	if st.CallsInlined == 0 || st.LocksHoisted == 0 {
		t.Fatalf("parsed program did not optimize: %+v", st)
	}
}

const ctorArraysIR = `
class Node { key, next }
constructor Node.init(this Node) {
  write this.key
}
method fill(arr) {
  newarray tmp 8
  loop 8 i {
    write tmp[i]
    read arr[i]
  }
  assign alias tmp
  new n Node
  if {
    write n.next
  } else {
    read n.key
  }
}
`

func TestParseProgramConstructorAndArrays(t *testing.T) {
	p, err := ParseProgram(ctorArraysIR)
	if err != nil {
		t.Fatal(err)
	}
	ctor := p.Methods["Node.init"]
	if ctor == nil || !ctor.Constructor || ctor.Class != "Node" {
		t.Fatalf("constructor wrong: %+v", ctor)
	}
	fill := p.Methods["fill"]
	loop := fill.Body.Stmts[1].(*Loop)
	if loop.IdxVar != "i" {
		t.Fatalf("loop index not parsed: %+v", loop)
	}
	acc := loop.Body.Stmts[0].(*Access)
	if !acc.IsArray || acc.Index != "i" || !acc.Write {
		t.Fatalf("array access wrong: %+v", acc)
	}
	st, err := p.Transform(Options{InferFinals: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalsInferred != 1 {
		t.Fatalf("FinalsInferred = %d, want 1 (key is ctor-only)", st.FinalsInferred)
	}
}

var badIR = []string{
	"bogus",
	"class C {",
	"method m( {",
	"method m() { read x }",
	"method m() { write x , }",
	"method m() { loop x { } }",
	"method m() { newarray a x }",
	"class A { f0 }\nmethod m(a A) { loop -5 { write a.f0 } }",
	"method m() { newarray x -3 }",
	"method m() { call f( }",
	"method m() { explode }",
	"constructor broken() { }",
	"constructor C.init() canSplit { }",
	"method m() { split }", // split without canSplit: caught by Check
}

func TestParseProgramErrors(t *testing.T) {
	for _, bad := range badIR {
		p, err := ParseProgram(bad)
		if err == nil {
			err = p.Check()
		}
		if err == nil {
			t.Errorf("ParseProgram(%q) accepted", bad)
		}
	}
}

func TestTokenizeCommentsAndPunct(t *testing.T) {
	toks := tokenize("read a.b # trailing comment\nwrite c[d]")
	want := []string{"read", "a", ".", "b", "write", "c", "[", "d", "]"}
	if len(toks) != len(want) {
		t.Fatalf("tokens %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tokens %v, want %v", toks, want)
		}
	}
}

func TestParsedProgramRunsInInterpreter(t *testing.T) {
	p, err := ParseProgram(webshopIR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform(AllOptimizations()); err != nil {
		t.Fatal(err)
	}
	rt := stm.NewRuntime()
	in := NewInterp(p, rt)
	art := stm.NewCommitted(in.ClassOf("Article"))
	stats := stm.NewCommitted(in.ClassOf("Stats"))
	if _, err := in.Run("run",
		map[string]*stm.Object{"art": art, "stats": stats},
		map[string]string{"art": "Article", "stats": "Stats"}); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Snapshot().Commits == 0 {
		t.Fatal("interpreter committed nothing")
	}
	// stats.processed was written 100 times (the IR write is a
	// deterministic transform of the old value, so just check non-zero).
	if stats.RawWord(in.ClassOf("Stats").Field("processed")) == 0 {
		t.Fatal("field writes lost")
	}
}

// FuzzParseProgram: ParseProgram, and Check on whatever it accepts,
// return errors for malformed IR and never panic. Seeded from the
// inputs above and every example program.
func FuzzParseProgram(f *testing.F) {
	for _, src := range append([]string{webshopIR, ctorArraysIR}, badIR...) {
		f.Add(src)
	}
	files, _ := filepath.Glob("../../examples/*/*.ir")
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if p, err := ParseProgram(src); err == nil {
			p.Check() //nolint:errcheck
		}
	})
}
