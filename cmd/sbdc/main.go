// Command sbdc is the "bytecode transformer" CLI: it transforms a
// built-in suite of IR programs (internal/instrument) and reports what
// each optimization pass contributes — the ablation of the paper's §3.3
// compile-time optimizations and §5.2 final-field inference.
//
// With -ablate, each pass is toggled individually against the
// all-passes-on configuration and the per-program executed-operation
// deltas are printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/harness"
	"repro/internal/instrument"
)

var (
	ablate    = flag.Bool("ablate", false, "per-pass ablation instead of the summary")
	file      = flag.String("file", "", "transform a textual-IR program file instead of the built-in suite")
	naive     = flag.Bool("naive", false, "with -file: disable all optimization passes")
	printFlag = flag.Bool("print", false, "with -file: print the annotated transformed program")
	suggest   = flag.Bool("suggest", false, "with -file: print modifier suggestions instead of transforming")
)

// suite builds the demo programs: the paper's Figure 2 web-shop shape,
// a constructor-heavy program for final inference, a loop-heavy program
// for hoisting, and a nested-loop program for deep hoisting.
func suite() map[string]func() *instrument.Program {
	return map[string]func() *instrument.Program{
		"webshop":   webshop,
		"ctorheavy": ctorHeavy,
		"loops":     loops,
		"nested":    nested,
	}
}

func webshop() *instrument.Program {
	p := instrument.NewProgram()
	p.AddClass("Article", "available", "reserved", "price")
	p.AddClass("Stats", "processed")
	p.AddMethod(&instrument.Method{
		Name: "processPosition", Params: []string{"a"}, ParamClasses: []string{"Article"},
		Body: &instrument.Block{Stmts: []instrument.Stmt{
			&instrument.Access{Var: "a", Field: "available"},
			&instrument.Access{Var: "a", Field: "available", Write: true},
			&instrument.Access{Var: "a", Field: "reserved", Write: true},
			&instrument.Access{Var: "a", Field: "price"},
		}},
	})
	p.AddMethod(&instrument.Method{
		Name: "run", CanSplit: true,
		Params: []string{"art", "stats"}, ParamClasses: []string{"Article", "Stats"},
		Body: &instrument.Block{Stmts: []instrument.Stmt{
			&instrument.Loop{Count: 100, Body: &instrument.Block{Stmts: []instrument.Stmt{
				&instrument.Loop{Count: 4, Body: &instrument.Block{Stmts: []instrument.Stmt{
					&instrument.Call{Method: "processPosition", Args: []string{"art"}},
				}}},
				&instrument.Access{Var: "stats", Field: "processed", Write: true},
				&instrument.Split{},
			}}},
		}},
	})
	return p
}

func ctorHeavy() *instrument.Program {
	p := instrument.NewProgram()
	p.AddClass("Node", "key", "weight", "next")
	p.AddMethod(&instrument.Method{
		Name: "Node.init", Class: "Node", Constructor: true,
		Body: &instrument.Block{Stmts: []instrument.Stmt{
			&instrument.Access{Var: "this", Field: "key", Write: true},
			&instrument.Access{Var: "this", Field: "weight", Write: true},
		}},
	})
	p.AddMethod(&instrument.Method{
		Name: "walk", Params: []string{"n"}, ParamClasses: []string{"Node"},
		Body: &instrument.Block{Stmts: []instrument.Stmt{
			&instrument.Loop{Count: 50, Body: &instrument.Block{Stmts: []instrument.Stmt{
				&instrument.Access{Var: "n", Field: "key"},
				&instrument.Access{Var: "n", Field: "weight"},
				&instrument.Access{Var: "n", Field: "next", Write: true},
			}}},
		}},
	})
	return p
}

func loops() *instrument.Program {
	p := instrument.NewProgram()
	p.AddClass("Acc", "total")
	p.AddMethod(&instrument.Method{
		Name: "sum", Params: []string{"acc", "arr", "weights"}, ParamClasses: []string{"Acc", "", ""},
		Body: &instrument.Block{Stmts: []instrument.Stmt{
			&instrument.Loop{Count: 200, IdxVar: "i", Body: &instrument.Block{Stmts: []instrument.Stmt{
				// Two distinct varying words per iteration: un-hoistable
				// reads, which the runtime serves from its read tiers.
				&instrument.Access{Var: "arr", IsArray: true, Index: "i"},
				&instrument.Access{Var: "weights", IsArray: true, Index: "i"},
				&instrument.Access{Var: "acc", Field: "total", Write: true},
			}}},
		}},
	})
	return p
}

// nested stresses interprocedural/deep hoisting: the inner loop's
// invariant write hoists to a HoistedLock in the outer body (shallow
// hoisting stops there, paying it once per outer iteration); the deep
// pass lifts the already-hoisted lock cascade out of the outer loop too,
// leaving a single acquisition for the whole 10x30 nest.
func nested() *instrument.Program {
	p := instrument.NewProgram()
	p.AddClass("Grid", "cells")
	p.AddMethod(&instrument.Method{
		Name: "fill", Params: []string{"g"}, ParamClasses: []string{"Grid"},
		Body: &instrument.Block{Stmts: []instrument.Stmt{
			&instrument.Loop{Count: 10, Body: &instrument.Block{Stmts: []instrument.Stmt{
				&instrument.Loop{Count: 30, Body: &instrument.Block{Stmts: []instrument.Stmt{
					&instrument.Access{Var: "g", Field: "cells", Write: true},
				}}},
			}}},
		}},
	})
	return p
}

// entry returns each program's entry method for the MethodOps metric.
var entries = map[string]string{
	"webshop": "run", "ctorheavy": "walk", "loops": "sum", "nested": "fill",
}

func measure(name string, build func() *instrument.Program, opts instrument.Options) (instrument.Stats, int) {
	p := build()
	st, err := p.Transform(opts)
	if err != nil {
		panic(err)
	}
	full, _, _ := p.MethodOps(entries[name])
	return st, full
}

func main() {
	flag.Parse()

	if *file != "" {
		transformFile(*file)
		return
	}

	if !*ablate {
		fmt.Println("sbdc: transformation summary (all optimizations)")
		fmt.Println()
		tbl := harness.NewTable("Program", "Inlined", "FinalsInf", "Hoisted", "ChecksRem",
			"NewMerged", "IntentInf", "FullOps", "NewOnly", "RawOps")
		for _, name := range []string{"webshop", "ctorheavy", "loops", "nested"} {
			build := suite()[name]
			p := build()
			st, err := p.Transform(instrument.AllOptimizations())
			if err != nil {
				panic(err)
			}
			full, newOnly, raw := p.MethodOps(entries[name])
			tbl.Row(name, st.CallsInlined, st.FinalsInferred, st.LocksHoisted,
				st.ChecksRemoved, st.NewChecksMerged, st.IntentInferred, full, newOnly, raw)
		}
		fmt.Print(tbl.String())
		return
	}

	fmt.Println("sbdc: per-pass ablation (executed full lock ops of the entry method)")
	fmt.Println()
	configs := []struct {
		name string
		opts instrument.Options
	}{
		{"none", instrument.NoOptimizations()},
		{"all", instrument.AllOptimizations()},
		{"all-inline", func() instrument.Options {
			o := instrument.AllOptimizations()
			o.Inline = false
			return o
		}()},
		{"all-hoist", func() instrument.Options {
			o := instrument.AllOptimizations()
			o.Hoist = false
			return o
		}()},
		{"all-elim", func() instrument.Options {
			o := instrument.AllOptimizations()
			o.EliminateRedun = false
			return o
		}()},
		{"all-finals", func() instrument.Options {
			o := instrument.AllOptimizations()
			o.InferFinals = false
			return o
		}()},
		{"all-combine", func() instrument.Options {
			o := instrument.AllOptimizations()
			o.CombineNew = false
			return o
		}()},
		{"all-hoistdeep", func() instrument.Options {
			o := instrument.AllOptimizations()
			o.HoistDeep = false
			return o
		}()},
		{"all-intent", func() instrument.Options {
			o := instrument.AllOptimizations()
			o.InferIntent = false
			return o
		}()},
	}

	header := []string{"Config"}
	for _, name := range []string{"webshop", "ctorheavy", "loops", "nested"} {
		header = append(header, name)
	}
	tbl := harness.NewTable(header...)
	for _, cfg := range configs {
		row := []any{cfg.name}
		for _, name := range []string{"webshop", "ctorheavy", "loops", "nested"} {
			_, full := measure(name, suite()[name], cfg.opts)
			row = append(row, full)
		}
		tbl.Row(row...)
	}
	fmt.Print(tbl.String())
	fmt.Println()
	fmt.Println("Lower is better; compare each all-<pass> row against `all` to see the")
	fmt.Println("pass's contribution (paper §3.3 and the §5.2 final-field effect).")
}

// transformFile runs the transformer over a user-supplied IR program.
func transformFile(path string) {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbdc:", err)
		os.Exit(1)
	}
	p, err := instrument.ParseProgram(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbdc:", err)
		os.Exit(1)
	}
	if *suggest {
		suggestions := instrument.Suggest(p)
		if len(suggestions) == 0 {
			fmt.Println("sbdc: no modifier suggestions")
			return
		}
		for _, s := range suggestions {
			fmt.Printf("sbdc: suggest %-11s %-30s (%s)\n", s.Kind, s.Target, s.Reason)
		}
		return
	}
	opts := instrument.AllOptimizations()
	if *naive {
		opts = instrument.NoOptimizations()
	}
	st, err := p.Transform(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbdc:", err)
		os.Exit(1)
	}
	fmt.Printf("sbdc: %s (%d classes, %d methods)\n\n", path, len(p.Classes), len(p.Methods))
	fmt.Printf("  inlined calls:        %d\n", st.CallsInlined)
	fmt.Printf("  finals inferred:      %d\n", st.FinalsInferred)
	fmt.Printf("  locks hoisted:        %d\n", st.LocksHoisted)
	fmt.Printf("  checks eliminated:    %d\n", st.ChecksRemoved)
	fmt.Printf("  new-checks combined:  %d\n", st.NewChecksMerged)
	fmt.Printf("  intent inferred:      %d\n", st.IntentInferred)
	fmt.Println()
	tbl := harness.NewTable("Method", "FullOps", "NewOnly", "RawOps")
	names := make([]string, 0, len(p.Methods))
	for name := range p.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full, newOnly, raw := p.MethodOps(name)
		tbl.Row(name, full, newOnly, raw)
	}
	fmt.Print(tbl.String())
	if *printFlag {
		fmt.Println()
		fmt.Print(instrument.PrintProgram(p))
	}
}
