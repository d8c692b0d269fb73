package instrument

import (
	"fmt"
	"strconv"
)

// The static inliner of §4.1: the paper's tool replays the HotSpot JIT's
// inlining decisions from a compilation log; lacking a JIT, this inliner
// applies the same policy HotSpot's log encodes in the common case —
// inline small non-recursive callees, at most inlineBudget statements
// long. Inlining matters because the optimization passes are
// intraprocedural: a lock made redundant by the caller is only visible
// once the callee's accesses sit in the caller's body.

// inlineAll inlines eligible calls in every method until fixpoint,
// returning the number of call sites expanded.
func (p *Program) inlineAll() int {
	total := 0
	for pass := 0; pass < 8; pass++ { // depth cap against pathological chains
		n := 0
		for _, m := range p.Methods {
			n += p.inlineBlock(m, m.Body)
		}
		total += n
		if n == 0 {
			break
		}
	}
	return total
}

func (p *Program) inlineBlock(m *Method, b *Block) int {
	if b == nil {
		return 0
	}
	n := 0
	var out []Stmt
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *Call:
			callee, ok := p.Methods[st.Method]
			if ok && p.inlinable(m, callee) {
				out = append(out, p.expand(callee, st.Args, n)...)
				n++
				continue
			}
			out = append(out, st)
		case *Loop:
			n += p.inlineBlock(m, st.Body)
			out = append(out, st)
		case *If:
			n += p.inlineBlock(m, st.Then)
			n += p.inlineBlock(m, st.Else)
			out = append(out, st)
		default:
			out = append(out, s)
		}
	}
	b.Stmts = out
	return n
}

func (p *Program) inlinable(caller, callee *Method) bool {
	if callee == caller || callee.Constructor {
		return false
	}
	if blockSize(callee.Body) > inlineBudget {
		return false
	}
	// No recursion (direct or through the callee's own calls).
	return !p.reaches(callee, callee, map[string]bool{})
}

func (p *Program) reaches(from, target *Method, seen map[string]bool) bool {
	if seen[from.Name] {
		return false
	}
	seen[from.Name] = true
	found := false
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil || found {
			return
		}
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *Call:
				callee, ok := p.Methods[st.Method]
				if !ok {
					continue
				}
				if callee == target || p.reaches(callee, target, seen) {
					found = true
					return
				}
			case *Loop:
				walk(st.Body)
			case *If:
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(from.Body)
	return found
}

func blockSize(b *Block) int {
	if b == nil {
		return 0
	}
	n := 0
	for _, s := range b.Stmts {
		n++
		switch st := s.(type) {
		case *Loop:
			n += blockSize(st.Body)
		case *If:
			n += blockSize(st.Then) + blockSize(st.Else)
		}
	}
	return n
}

var inlineCounter int

// expand clones the callee body substituting parameters with argument
// variable names; callee-local variables are renamed to fresh names so
// they cannot capture caller variables.
func (p *Program) expand(callee *Method, args []string, site int) []Stmt {
	inlineCounter++
	prefix := fmt.Sprintf("$inl%d_", inlineCounter)
	sub := map[string]string{}
	for i, param := range callee.Params {
		sub[param] = args[i]
	}
	rename := func(v string) string {
		if r, ok := sub[v]; ok {
			return r
		}
		if v == "" {
			return v
		}
		fresh := prefix + v
		sub[v] = fresh
		return fresh
	}
	_ = site
	var cloneBlock func(b *Block) *Block
	cloneBlock = func(b *Block) *Block {
		if b == nil {
			return nil
		}
		nb := &Block{}
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *Access:
				nb.Stmts = append(nb.Stmts, &Access{
					Var: rename(st.Var), Field: st.Field,
					IsArray: st.IsArray, Index: renameIdx(st.Index, sub, prefix),
					Write: st.Write, WriteIntent: st.WriteIntent,
				})
			case *New:
				nb.Stmts = append(nb.Stmts, &New{Dst: rename(st.Dst), Class: st.Class})
			case *NewArray:
				nb.Stmts = append(nb.Stmts, &NewArray{Dst: rename(st.Dst), Size: st.Size})
			case *Assign:
				nb.Stmts = append(nb.Stmts, &Assign{Dst: rename(st.Dst), Src: rename(st.Src)})
			case *Call:
				nargs := make([]string, len(st.Args))
				for i, a := range st.Args {
					nargs[i] = rename(a)
				}
				nb.Stmts = append(nb.Stmts, &Call{Method: st.Method, AllowSplit: st.AllowSplit, Args: nargs})
			case *Split:
				nb.Stmts = append(nb.Stmts, &Split{})
			case *Loop:
				nb.Stmts = append(nb.Stmts, &Loop{
					Count: st.Count, IdxVar: renameIdx(st.IdxVar, sub, prefix), Body: cloneBlock(st.Body),
				})
			case *If:
				nb.Stmts = append(nb.Stmts, &If{Then: cloneBlock(st.Then), Else: cloneBlock(st.Else)})
			case *HoistedLock:
				nb.Stmts = append(nb.Stmts, &HoistedLock{
					Var: rename(st.Var), Field: st.Field, IsArray: st.IsArray,
					Index: renameIdx(st.Index, sub, prefix), Write: st.Write,
				})
			default:
				panic(fmt.Sprintf("instrument: expand: unknown stmt %T", s))
			}
		}
		return nb
	}
	return cloneBlock(callee.Body).Stmts
}

// renameIdx renames integer index variables consistently with the
// substitution map; literal indices (decimal strings) pass through.
func renameIdx(idx string, sub map[string]string, prefix string) string {
	if idx == "" {
		return idx
	}
	if _, err := strconv.Atoi(idx); err == nil {
		return idx
	}
	if r, ok := sub[idx]; ok {
		return r
	}
	fresh := prefix + idx
	sub[idx] = fresh
	return fresh
}
