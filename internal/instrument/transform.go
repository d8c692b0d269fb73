package instrument

// Options selects the optimization passes; all on is the paper's
// configuration, individual switches drive the ablation benchmarks.
type Options struct {
	InferFinals    bool // §5.2: auto-add final to ctor-only fields
	Inline         bool // §4.1: static inlining feeding the passes below
	Hoist          bool // §3.3 (2): move lock ops out of loops
	EliminateRedun bool // §3.3 (1): dataflow removal of redundant checks
	CombineNew     bool // §3.3 (3): combine is-new checks per instance

	// Beyond-the-paper passes (this repo):

	// HoistDeep extends Hoist interprocedurally: after inlining, lock
	// operations are hoisted out of must-execute nested positions
	// (noSplit bodies, already-hoisted locks of inner loops) instead of
	// stopping at the immediate loop body — acquisitions that crossed an
	// inlined call boundary keep bubbling up. Requires Hoist.
	HoistDeep bool
	// InferIntent marks reads that are provably upgraded by a later
	// write in the same straight-line block; they acquire in write mode
	// up front (Tx.ReadWordForWrite) so the upgrade duel never happens.
	InferIntent bool
}

const inlineBudget = 16 // the largest callee, in statements, that Inline inlines

// AllOptimizations enables every pass.
func AllOptimizations() Options {
	return Options{
		InferFinals: true, Inline: true,
		Hoist: true, EliminateRedun: true, CombineNew: true,
		HoistDeep: true, InferIntent: true,
	}
}

// NoOptimizations disables every pass (the naive transformer).
func NoOptimizations() Options { return Options{} }

// Stats reports what the transformation did and the resulting static
// lock-operation counts, weighted by loop trip counts (the number of
// operations one execution of each method performs).
type Stats struct {
	FinalsInferred  int
	CallsInlined    int
	LocksHoisted    int
	ChecksRemoved   int // redundant lock ops eliminated by dataflow
	NewChecksMerged int
	IntentInferred  int // reads marked WriteIntent by intent inference

	// Weighted dynamic-estimate counts over all methods.
	FullOps      int // accesses performing the full Figure 5 operation
	NewCheckOnly int // accesses needing only the is-new check
	RawOps       int // accesses with no synchronization at all
}

// Transform annotates every access of the program per the paper's rules
// and optimization passes and returns the statistics. The program is
// modified in place (inlining rewrites bodies; hoisting inserts
// HoistedLock statements).
func (p *Program) Transform(opts Options) (Stats, error) {
	var st Stats
	if err := p.Check(); err != nil {
		return st, err
	}
	if opts.InferFinals {
		st.FinalsInferred = p.inferFinals()
	}
	if opts.Inline {
		st.CallsInlined = p.inlineAll()
	}
	if opts.InferIntent {
		st.IntentInferred = p.inferIntent()
	}
	if opts.Hoist {
		for _, m := range p.Methods {
			st.LocksHoisted += p.hoistLoops(m.Body, opts.HoistDeep)
		}
	}
	for _, m := range p.Methods {
		p.annotate(m, &st, opts)
	}
	for _, m := range p.Methods {
		p.countOps(m.Body, 1, &st, nil)
	}
	return st, nil
}

// inferFinals promotes fields that are assigned only inside constructors
// of their class. Accesses are matched to classes via the type
// environment, so only assignments whose receiver class is known count.
func (p *Program) inferFinals() int {
	// Gather assignments.
	for _, m := range p.Methods {
		env := p.initialTypes(m)
		p.scanAssigns(m, m.Body, env)
	}
	n := 0
	for _, c := range p.Classes {
		for _, f := range c.Fields {
			if !f.Final && f.assignedInCtor && !f.assignedOutsideCtor {
				f.Final = true
				f.Inferred = true
				n++
			}
		}
	}
	return n
}

func (p *Program) initialTypes(m *Method) map[string]string {
	env := map[string]string{}
	for i, param := range m.Params {
		if i < len(m.ParamClasses) {
			env[param] = m.ParamClasses[i]
		}
	}
	if m.Class != "" && m.Constructor {
		env["this"] = m.Class
	}
	return env
}

func (p *Program) scanAssigns(m *Method, b *Block, env map[string]string) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *New:
			env[st.Dst] = st.Class
		case *Assign:
			env[st.Dst] = env[st.Src]
		case *Access:
			if !st.Write || st.IsArray {
				continue
			}
			cls := p.Classes[env[st.Var]]
			if cls == nil {
				// Unknown receiver: the write could hit any class with a
				// field of this name; be conservative.
				for _, c := range p.Classes {
					if f := c.Field(st.Field); f != nil {
						f.assignedOutsideCtor = true
					}
				}
				continue
			}
			if f := cls.Field(st.Field); f != nil {
				if m.Constructor && m.Class == cls.Name && st.Var == "this" {
					f.assignedInCtor = true
				} else {
					f.assignedOutsideCtor = true
				}
			}
		case *Loop:
			p.scanAssigns(m, st.Body, env)
		case *If:
			p.scanAssigns(m, st.Then, env)
			p.scanAssigns(m, st.Else, env)
		}
	}
}

// flow is the dataflow state of the redundancy analysis: per-variable
// lock modes and is-new-check status. Variables are a sound proxy for
// objects: rebinding a variable kills its facts, and aliases simply
// miss optimization opportunities.
type flow struct {
	locks map[lockKey]uint8 // 1 = read locked, 2 = write locked
	newOK map[string]bool   // is-new check already performed for var
	types map[string]string // var -> class name ("" unknown)
}

type lockKey struct {
	v     string
	field string
}

func newFlow(types map[string]string) *flow {
	return &flow{locks: map[lockKey]uint8{}, newOK: map[string]bool{}, types: types}
}

func (f *flow) clone() *flow {
	nf := newFlow(map[string]string{})
	for k, v := range f.locks {
		nf.locks[k] = v
	}
	for k, v := range f.newOK {
		nf.newOK[k] = v
	}
	for k, v := range f.types {
		nf.types[k] = v
	}
	return nf
}

// meet intersects two states (used at control-flow joins).
func (f *flow) meet(o *flow) *flow {
	nf := newFlow(map[string]string{})
	for k, v := range f.locks {
		if ov, ok := o.locks[k]; ok {
			if ov < v {
				v = ov
			}
			nf.locks[k] = v
		}
	}
	for k := range f.newOK {
		if o.newOK[k] {
			nf.newOK[k] = true
		}
	}
	for k, v := range f.types {
		if o.types[k] == v {
			nf.types[k] = v
		}
	}
	return nf
}

func (f *flow) equal(o *flow) bool {
	if len(f.locks) != len(o.locks) || len(f.newOK) != len(o.newOK) {
		return false
	}
	for k, v := range f.locks {
		if o.locks[k] != v {
			return false
		}
	}
	for k := range f.newOK {
		if !o.newOK[k] {
			return false
		}
	}
	return true
}

func (f *flow) killVar(v string) {
	for k := range f.locks {
		if k.v == v {
			delete(f.locks, k)
		}
	}
	delete(f.newOK, v)
}

func (f *flow) clearSection() {
	f.locks = map[lockKey]uint8{}
	f.newOK = map[string]bool{}
}

// annotate runs the combined redundancy/combining dataflow over one
// method and sets each access's annotations.
func (p *Program) annotate(m *Method, st *Stats, opts Options) {
	f := newFlow(p.initialTypes(m))
	p.annotateBlock(m, m.Body, f, st, opts, true, false)
}

// annotateBlock analyzes b starting from state f (mutated in place) and
// returns nothing; record controls whether annotations and stats are
// written (fixpoint pre-passes run with record=false). noSplit marks
// blocks inside a §3.7 noSplit composition: splits there are ignored, so
// they do NOT clear the locked set — composition is precisely what makes
// the enclosing section's facts survive.
func (p *Program) annotateBlock(m *Method, b *Block, f *flow, st *Stats, opts Options, record, noSplit bool) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		switch stmt := s.(type) {
		case *New:
			f.killVar(stmt.Dst)
			f.types[stmt.Dst] = stmt.Class
		case *NewArray:
			f.killVar(stmt.Dst)
			delete(f.types, stmt.Dst)
		case *Assign:
			f.killVar(stmt.Dst)
			f.types[stmt.Dst] = f.types[stmt.Src]
		case *Split:
			if !noSplit {
				f.clearSection()
			}
		case *NoSplit:
			p.annotateBlock(m, stmt.Body, f, st, opts, record, true)
		case *Call:
			callee, ok := p.Methods[stmt.Method]
			if ok && !noSplit && p.maySplit(callee, map[string]bool{}) {
				// The callee may end the section: nothing survives. This
				// is exactly where the canSplit property pays off — a
				// callee without it preserves the whole locked set.
				f.clearSection()
			}
			// Args may be retained/rebound inside the callee? Calls
			// cannot rebind caller variables in this IR, so facts about
			// them survive.
		case *HoistedLock:
			if !stmt.IsArray {
				if cls := p.Classes[f.types[stmt.Var]]; cls != nil {
					if fd := cls.Field(stmt.Field); fd != nil && fd.Final {
						if record {
							stmt.Elided = true // final field: nothing to hoist
						}
						continue
					}
				}
			}
			key := lockKey{stmt.Var, accessField(stmt.Field, stmt.IsArray, stmt.Index)}
			mode := uint8(1)
			if stmt.Write {
				mode = 2
			}
			if opts.EliminateRedun && f.locks[key] >= mode {
				if record {
					stmt.Elided = true // already locked on every path here
				}
				continue
			}
			if f.locks[key] < mode {
				f.locks[key] = mode
			}
			f.newOK[stmt.Var] = true
		case *Access:
			p.annotateAccess(m, stmt, f, st, opts, record)
		case *Loop:
			// Fixpoint: the loop entry state is the meet of the incoming
			// state and the body's exit state.
			entry := f.clone()
			for {
				probe := entry.clone()
				p.annotateBlock(m, stmt.Body, probe, st, opts, false, noSplit)
				next := entry.meet(probe)
				if next.equal(entry) {
					break
				}
				entry = next
			}
			p.annotateBlock(m, stmt.Body, entry, st, opts, record, noSplit)
			*f = *entry
		case *If:
			thenF := f.clone()
			p.annotateBlock(m, stmt.Then, thenF, st, opts, record, noSplit)
			elseF := f.clone()
			p.annotateBlock(m, stmt.Else, elseF, st, opts, record, noSplit)
			*f = *thenF.meet(elseF)
		}
	}
}

// accessField canonicalizes the lock key of a field or array-element
// access: array elements are tracked per index variable.
func accessField(field string, isArray bool, index string) string {
	if isArray {
		return "[" + index + "]"
	}
	return field
}

func (p *Program) annotateAccess(m *Method, a *Access, f *flow, st *Stats, opts Options, record bool) {
	// Resolve finality.
	final := false
	if !a.IsArray {
		if cls := p.Classes[f.types[a.Var]]; cls != nil {
			if fd := cls.Field(a.Field); fd != nil && fd.Final {
				final = true
			}
		}
	}
	if final {
		if record {
			a.FinalAccess = true
			a.NeedsNewCheck = false
			a.NeedsLockOp = false
		}
		return
	}

	key := lockKey{a.Var, accessField(a.Field, a.IsArray, a.Index)}
	mode := uint8(1)
	if a.Write || a.WriteIntent {
		// A WriteIntent read acquires (and therefore establishes) the
		// write mode up front.
		mode = 2
	}
	haveLock := (opts.EliminateRedun && f.locks[key] >= mode) || a.Hoisted
	haveNew := opts.CombineNew && f.newOK[a.Var]

	if record {
		a.FinalAccess = false
		a.NeedsLockOp = !haveLock
		a.NeedsNewCheck = !haveLock && !haveNew
		if haveLock {
			st.ChecksRemoved++
		} else if haveNew {
			st.NewChecksMerged++
		}
	}
	if f.locks[key] < mode {
		f.locks[key] = mode
	}
	f.newOK[a.Var] = true
}

// hoistLoops moves loop-invariant lock operations in front of loops with
// no split inside, preserving the relative locking order of the hoisted
// operations. Only direct statements of the loop body are candidates;
// nested loops are processed recursively first.
//
// With deep set (Options.HoistDeep), candidates additionally come from
// must-execute nested positions of the loop body: accesses inside
// noSplit compositions, and HoistedLock statements the recursive pass
// already placed in front of inner loops — those are lifted out of this
// loop too, so an acquisition hoisted inside an inlined callee keeps
// bubbling up through every enclosing loop instead of being re-executed
// per outer iteration. If arms are deliberately NOT candidates: they
// are not must-execute, and hoisting them would acquire locks the
// original program never touches on the taken path.
func (p *Program) hoistLoops(b *Block, deep bool) int {
	if b == nil {
		return 0
	}
	hoisted := 0
	var out []Stmt
	for _, s := range b.Stmts {
		switch stmt := s.(type) {
		case *Loop:
			hoisted += p.hoistLoops(stmt.Body, deep)
			if !p.blockMaySplit(stmt.Body, map[string]bool{}) && stmt.Count > 0 {
				assigned := assignedVars(stmt.Body)
				if stmt.IdxVar != "" {
					assigned[stmt.IdxVar] = true
				}
				invariant := func(v string, isArray bool, index string) bool {
					if assigned[v] {
						return false
					}
					if isArray && index != "" && assigned[index] {
						return false // varying element: not invariant
					}
					return true
				}
				hoistAccess := func(a *Access) {
					if a.Hoisted || !invariant(a.Var, a.IsArray, a.Index) {
						return
					}
					out = append(out, &HoistedLock{
						Var: a.Var, Field: a.Field, IsArray: a.IsArray,
						Index: a.Index, Write: a.Write || a.WriteIntent,
					})
					a.Hoisted = true
					hoisted++
				}
				var kept []Stmt
				for _, bs := range stmt.Body.Stmts {
					switch a := bs.(type) {
					case *Access:
						hoistAccess(a)
					case *HoistedLock:
						if deep && invariant(a.Var, a.IsArray, a.Index) {
							// Lift an inner loop's hoisted lock out of this
							// loop as well; it now executes once instead of
							// once per outer iteration.
							out = append(out, a)
							hoisted++
							continue
						}
					case *NoSplit:
						if deep {
							var walk func(nb *Block)
							walk = func(nb *Block) {
								if nb == nil {
									return
								}
								for _, ns := range nb.Stmts {
									switch na := ns.(type) {
									case *Access:
										hoistAccess(na)
									case *NoSplit:
										walk(na.Body)
									}
								}
							}
							walk(a.Body)
						}
					}
					kept = append(kept, bs)
				}
				stmt.Body.Stmts = kept
			}
			out = append(out, stmt)
		case *If:
			hoisted += p.hoistLoops(stmt.Then, deep)
			hoisted += p.hoistLoops(stmt.Else, deep)
			out = append(out, stmt)
		case *NoSplit:
			hoisted += p.hoistLoops(stmt.Body, deep)
			out = append(out, stmt)
		default:
			out = append(out, s)
		}
	}
	b.Stmts = out
	return hoisted
}

func assignedVars(b *Block) map[string]bool {
	vars := map[string]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if b == nil {
			return
		}
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *New:
				vars[st.Dst] = true
			case *NewArray:
				vars[st.Dst] = true
			case *Assign:
				vars[st.Dst] = true
			case *Loop:
				if st.IdxVar != "" {
					vars[st.IdxVar] = true
				}
				walk(st.Body)
			case *If:
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(b)
	return vars
}

// MethodOps returns the lock-operation counts one execution of the
// named method performs, following calls (non-recursively) and weighting
// by loop trip counts. This is the dynamic-estimate metric the ablation
// reports use: unlike the whole-program static totals, it is comparable
// across inlining decisions.
func (p *Program) MethodOps(name string) (full, newOnly, raw int) {
	m, ok := p.Methods[name]
	if !ok {
		return 0, 0, 0
	}
	var st Stats
	p.countOps(m.Body, 1, &st, map[string]bool{name: true})
	return st.FullOps, st.NewCheckOnly, st.RawOps
}

// countOps tallies the weighted operation counts of b. With stack
// non-nil it follows calls (non-recursively) into their callees; with
// stack nil it counts b's own statements only (Transform's totals).
func (p *Program) countOps(b *Block, weight int, st *Stats, stack map[string]bool) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		switch stmt := s.(type) {
		case *Access:
			switch {
			case stmt.FinalAccess || (!stmt.NeedsLockOp && !stmt.NeedsNewCheck):
				st.RawOps += weight
			case stmt.NeedsLockOp:
				st.FullOps += weight
			default:
				st.NewCheckOnly += weight
			}
		case *HoistedLock:
			if !stmt.Elided {
				st.FullOps += weight
			}
		case *Call:
			callee, ok := p.Methods[stmt.Method]
			if ok && stack != nil && !stack[stmt.Method] {
				stack[stmt.Method] = true
				p.countOps(callee.Body, weight, st, stack)
				delete(stack, stmt.Method)
			}
		case *Loop:
			p.countOps(stmt.Body, weight*stmt.Count, st, stack)
		case *If:
			p.countOps(stmt.Then, weight, st, stack)
			p.countOps(stmt.Else, weight, st, stack)
		case *NoSplit:
			p.countOps(stmt.Body, weight, st, stack)
		}
	}
}
