package instrument

import (
	"fmt"
	"sort"
	"strings"
)

// PrintProgram renders a (possibly transformed) program back to the
// textual IR, with the transformer's annotations as trailing comments:
//
//	write a.available        # full
//	read a.available         # elided: already locked
//	read a.price             # final: no synchronization
//	write c.f                # new-check combined
//
// sbdc -print uses it so a programmer can see exactly which accesses the
// optimization passes relieved of their checks.
func PrintProgram(p *Program) string {
	var b strings.Builder
	names := make([]string, 0, len(p.Classes))
	for n := range p.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := p.Classes[n]
		b.WriteString("class " + n + " { ")
		for i, f := range c.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			if f.Final {
				b.WriteString("final ") // inferred ones are listed in the comment
			}
			b.WriteString(f.Name)
		}
		b.WriteString(" }")
		var inferred []string
		for _, f := range c.Fields {
			if f.Inferred {
				inferred = append(inferred, f.Name)
			}
		}
		if len(inferred) > 0 {
			b.WriteString("  # inferred final: " + strings.Join(inferred, ", "))
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")

	mnames := make([]string, 0, len(p.Methods))
	for n := range p.Methods {
		mnames = append(mnames, n)
	}
	sort.Strings(mnames)
	for _, n := range mnames {
		m := p.Methods[n]
		kw := "method"
		if m.Constructor {
			kw = "constructor"
		}
		b.WriteString(kw + " " + n + "(")
		for i, param := range m.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(param)
			if i < len(m.ParamClasses) && m.ParamClasses[i] != "" {
				b.WriteString(" " + m.ParamClasses[i])
			}
		}
		b.WriteString(")")
		if m.CanSplit {
			b.WriteString(" canSplit")
		}
		if m.SplitRequired {
			b.WriteString(" splitRequired")
		}
		b.WriteString(" {\n")
		printBlock(&b, m.Body, 1)
		b.WriteString("}\n\n")
	}
	return b.String()
}

func printBlock(b *strings.Builder, blk *Block, depth int) {
	if blk == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	for _, s := range blk.Stmts {
		switch st := s.(type) {
		case *Access:
			op := "read"
			if st.Write {
				op = "write"
			}
			target := st.Var + "." + st.Field
			if st.IsArray {
				target = st.Var + "[" + st.Index + "]"
			}
			fmt.Fprintf(b, "%s%s %s%s\n", indent, op, target, accessNote(st))
		case *HoistedLock:
			op := "read"
			if st.Write {
				op = "write"
			}
			target := st.Var + "." + st.Field
			if st.IsArray {
				target = st.Var + "[" + st.Index + "]"
			}
			note := "hoisted out of the loop below"
			if st.Elided {
				note = "elided (final or already locked)"
			}
			fmt.Fprintf(b, "%slock %s %s  # %s\n", indent, op, target, note)
		case *New:
			fmt.Fprintf(b, "%snew %s %s\n", indent, st.Dst, st.Class)
		case *NewArray:
			fmt.Fprintf(b, "%snewarray %s %d\n", indent, st.Dst, st.Size)
		case *Assign:
			fmt.Fprintf(b, "%sassign %s %s\n", indent, st.Dst, st.Src)
		case *Call:
			suffix := ""
			if st.AllowSplit {
				suffix = " allowSplit"
			}
			fmt.Fprintf(b, "%scall %s(%s)%s\n", indent, st.Method, strings.Join(st.Args, ", "), suffix)
		case *Split:
			fmt.Fprintf(b, "%ssplit\n", indent)
		case *NoSplit:
			fmt.Fprintf(b, "%snosplit {\n", indent)
			printBlock(b, st.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", indent)
		case *Loop:
			idx := ""
			if st.IdxVar != "" {
				idx = " " + st.IdxVar
			}
			fmt.Fprintf(b, "%sloop %d%s {\n", indent, st.Count, idx)
			printBlock(b, st.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", indent)
		case *If:
			fmt.Fprintf(b, "%sif {\n", indent)
			printBlock(b, st.Then, depth+1)
			if st.Else != nil {
				fmt.Fprintf(b, "%s} else {\n", indent)
				printBlock(b, st.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", indent)
		}
	}
}

func accessNote(a *Access) string {
	intent := func(s string) string {
		if a.WriteIntent && !a.Write {
			return s + ", write intent"
		}
		return s
	}
	switch {
	case a.FinalAccess:
		return "  # final: no synchronization"
	case a.Hoisted:
		return "  # elided: lock hoisted"
	case !a.NeedsLockOp && !a.NeedsNewCheck:
		return "  # elided: already locked"
	case !a.NeedsLockOp && a.NeedsNewCheck:
		return "  # new-check only"
	case a.NeedsLockOp && !a.NeedsNewCheck:
		return intent("  # full (new-check combined)")
	default:
		return intent("  # full")
	}
}

// Suggestion is one editor-support hint (paper §5.2: modifier additions
// "can benefit from code editor support, e.g., by using static analysis
// to suggest addition of the modifier").
type Suggestion struct {
	Kind   string // "final", "writeIntent", or "canSplit"
	Target string // Class.field or method name
	Reason string
}

// Suggest analyzes the program and proposes modifier additions: fields
// assigned only in constructors (final candidates) and methods that must
// carry canSplit because they (transitively) split. The program is not
// modified.
func Suggest(p *Program) []Suggestion {
	var out []Suggestion

	// Final candidates: run the inference on a scratch copy of the
	// assignment facts (inferFinals mutates field flags, so probe first
	// and restore).
	type probe struct {
		f    *FieldDef
		prev bool
	}
	var probes []probe
	for _, c := range p.Classes {
		for _, f := range c.Fields {
			probes = append(probes, probe{f, f.Final})
			f.assignedInCtor, f.assignedOutsideCtor = false, false
		}
	}
	p.inferFinals()
	for _, cname := range sortedClassNames(p) {
		c := p.Classes[cname]
		for _, f := range c.Fields {
			if f.Inferred {
				out = append(out, Suggestion{
					Kind:   "final",
					Target: cname + "." + f.Name,
					Reason: "assigned only in constructors",
				})
			}
		}
	}
	for _, pr := range probes {
		if !pr.prev {
			pr.f.Final = false
			pr.f.Inferred = false
		}
	}

	// Write-intent candidates: reads the intent-inference pass would
	// promote to write-mode acquisitions (upgraded by a certain later
	// write in the same block). The scan is read-only: upgradeFollows
	// never mutates the program.
	for _, mname := range sortedMethodNames(p) {
		m := p.Methods[mname]
		var walk func(b *Block)
		walk = func(b *Block) {
			if b == nil {
				return
			}
			for i, s := range b.Stmts {
				switch stmt := s.(type) {
				case *Access:
					if !stmt.Write && !stmt.WriteIntent && p.upgradeFollows(b, i+1, stmt) {
						target := stmt.Var + "." + stmt.Field
						if stmt.IsArray {
							target = stmt.Var + "[" + stmt.Index + "]"
						}
						out = append(out, Suggestion{
							Kind:   "writeIntent",
							Target: mname + ": " + target,
							Reason: "read is certainly upgraded by a later write in the same block",
						})
					}
				case *Loop:
					walk(stmt.Body)
				case *If:
					walk(stmt.Then)
					walk(stmt.Else)
				case *NoSplit:
					walk(stmt.Body)
				}
			}
		}
		walk(m.Body)
	}

	// canSplit requirements: methods that transitively split but are not
	// marked (Check would reject these programs; the suggestion explains
	// the fix).
	for _, mname := range sortedMethodNames(p) {
		m := p.Methods[mname]
		if !m.CanSplit && !m.Constructor && p.maySplit(m, map[string]bool{}) {
			out = append(out, Suggestion{
				Kind:   "canSplit",
				Target: mname,
				Reason: "issues a split directly or through a callee",
			})
		}
	}
	return out
}

func sortedClassNames(p *Program) []string {
	names := make([]string, 0, len(p.Classes))
	for n := range p.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedMethodNames(p *Program) []string {
	names := make([]string, 0, len(p.Methods))
	for n := range p.Methods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
