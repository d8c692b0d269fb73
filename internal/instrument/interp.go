package instrument

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/stm"
)

// Interp executes a transformed program against the real STM, honoring
// the annotations the transformer produced: accesses whose checks were
// eliminated run as raw memory operations, everything else goes through
// the full Tx access path. It exists to measure what the optimization
// passes buy (the ablation benchmarks) and to differentially test the
// transformer: an optimized and an unoptimized run of the same program
// must leave identical heaps.
//
// A run is one core.Thread: Split and NoSplit are the thread's own, and
// accesses use Thread.Tx outside any Atomic closure. That is sound only
// because a single-threaded run never aborts; a concurrent interpreter
// must route accesses through Thread.Atomic so an abort replays them.
type Interp struct {
	p       *Program
	rt      *core.Runtime
	classes map[string]*stm.Class
	fields  map[string]map[string]stm.FieldID
	// TakeElse makes every If execute its else branch instead of the
	// then branch (the IR condition is opaque); differential tests run
	// both settings so each arm's annotations are exercised.
	TakeElse bool
}

// NewInterp prepares an interpreter, materializing each IR class as an
// STM class (word fields only; the IR's values are counters).
func NewInterp(p *Program, rt *stm.Runtime) *Interp {
	in := &Interp{
		p:       p,
		rt:      core.FromSTM(rt),
		classes: map[string]*stm.Class{},
		fields:  map[string]map[string]stm.FieldID{},
	}
	for name, c := range p.Classes {
		specs := make([]stm.FieldSpec, len(c.Fields))
		for i, f := range c.Fields {
			specs[i] = stm.FieldSpec{Name: f.Name, Kind: stm.KindWord, Final: false}
			// Note: inferred-final fields stay lockable at the STM level;
			// the transformer's annotations (FinalAccess) are what skip
			// their synchronization, mirroring how the paper's transformer
			// emits unsynchronized bytecode for them.
		}
		in.classes[name] = stm.NewClass("ir."+name, specs...)
		fm := map[string]stm.FieldID{}
		for _, f := range c.Fields {
			fm[f.Name] = in.classes[name].Field(f.Name)
		}
		in.fields[name] = fm
	}
	return in
}

// ClassOf returns the STM class materialized for an IR class (for
// constructing argument objects in tests and benchmarks).
func (in *Interp) ClassOf(name string) *stm.Class { return in.classes[name] }

// env is one frame: object variables and integer variables.
type env struct {
	objs map[string]*stm.Object
	ints map[string]int
	// cls tracks each variable's IR class so field IDs resolve.
	cls map[string]string
}

func newEnv() *env {
	return &env{objs: map[string]*stm.Object{}, ints: map[string]int{}, cls: map[string]string{}}
}

// Run executes the named method as the main SBD thread of the
// interpreter's runtime (a split commits the section and begins the
// next) and returns the method's final environment for inspection. Args
// become the method's parameters.
func (in *Interp) Run(method string, args map[string]*stm.Object, argClasses map[string]string) (map[string]*stm.Object, error) {
	m, ok := in.p.Methods[method]
	if !ok {
		return nil, fmt.Errorf("instrument: no method %s", method)
	}
	e := newEnv()
	for k, v := range args {
		e.objs[k] = v
		e.cls[k] = argClasses[k]
	}
	var err error
	in.rt.Main(func(th *core.Thread) { err = in.execBlock(th, m.Body, e) })
	if err != nil {
		return nil, err
	}
	return e.objs, nil
}

func (in *Interp) execBlock(th *core.Thread, b *Block, e *env) error {
	if b == nil {
		return nil
	}
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *New:
			cls, ok := in.classes[st.Class]
			if !ok {
				return fmt.Errorf("instrument: new of unknown class %s", st.Class)
			}
			e.objs[st.Dst] = th.Tx().New(cls)
			e.cls[st.Dst] = st.Class
		case *NewArray:
			e.objs[st.Dst] = th.Tx().NewArray(stm.KindWord, st.Size)
			e.cls[st.Dst] = ""
		case *Assign:
			e.objs[st.Dst] = e.objs[st.Src]
			e.cls[st.Dst] = e.cls[st.Src]
		case *Split:
			th.Split() // §3.7: a no-op inside a NoSplit block
		case *NoSplit:
			var err error
			th.NoSplit(func() { err = in.execBlock(th, st.Body, e) })
			if err != nil {
				return err
			}
		case *Call:
			callee := in.p.Methods[st.Method]
			ce := newEnv()
			for i, param := range callee.Params {
				ce.objs[param] = e.objs[st.Args[i]]
				ce.cls[param] = e.cls[st.Args[i]]
			}
			if err := in.execBlock(th, callee.Body, ce); err != nil {
				return err
			}
		case *Loop:
			for i := 0; i < st.Count; i++ {
				if st.IdxVar != "" {
					e.ints[st.IdxVar] = i
				}
				if err := in.execBlock(th, st.Body, e); err != nil {
					return err
				}
			}
		case *If:
			// The IR condition is opaque; TakeElse selects the arm. The
			// analyses must be sound for either choice, which the
			// differential tests exercise by comparing heaps both ways.
			branch := st.Then
			if in.TakeElse && st.Else != nil {
				branch = st.Else
			}
			if err := in.execBlock(th, branch, e); err != nil {
				return err
			}
		case *HoistedLock:
			if err := in.execHoisted(st, e, th.Tx()); err != nil {
				return err
			}
		case *Access:
			if err := in.execAccess(st, e, th.Tx()); err != nil {
				return err
			}
		default:
			return fmt.Errorf("instrument: exec: unknown stmt %T", s)
		}
	}
	return nil
}

func (in *Interp) index(e *env, idx string) int {
	if idx == "" {
		return 0
	}
	if n, err := strconv.Atoi(idx); err == nil {
		return n
	}
	return e.ints[idx]
}

func (in *Interp) execHoisted(h *HoistedLock, e *env, tx *stm.Tx) error {
	if h.Elided {
		return nil
	}
	o := e.objs[h.Var]
	if o == nil {
		return fmt.Errorf("instrument: hoisted lock on unbound var %s", h.Var)
	}
	if h.IsArray {
		i := in.index(e, h.Index)
		if h.Write {
			tx.WriteElem(o, i, tx.ReadElem(o, i))
		} else {
			tx.ReadElem(o, i)
		}
		return nil
	}
	f := in.fields[e.cls[h.Var]][h.Field]
	if h.Write {
		tx.WriteWord(o, f, tx.ReadWord(o, f))
	} else {
		tx.ReadWord(o, f)
	}
	return nil
}

// execAccess performs the access per its annotations. Writes store a
// deterministic value derived from the old one so differential runs can
// compare heaps.
func (in *Interp) execAccess(a *Access, e *env, tx *stm.Tx) error {
	o := e.objs[a.Var]
	if o == nil {
		return fmt.Errorf("instrument: access to unbound var %s", a.Var)
	}
	if a.IsArray {
		i := in.index(e, a.Index)
		if a.NeedsLockOp {
			if a.Write {
				tx.WriteElem(o, i, tx.ReadElem(o, i)*3+1)
			} else if a.WriteIntent {
				tx.ReadElemForWrite(o, i)
			} else {
				tx.ReadElem(o, i)
			}
		} else {
			if a.Write {
				o.SetRawElem(i, o.RawElem(i)*3+1)
			} else {
				o.RawElem(i)
			}
		}
		return nil
	}
	fm, ok := in.fields[e.cls[a.Var]]
	if !ok {
		return fmt.Errorf("instrument: access %s.%s: unknown class %q", a.Var, a.Field, e.cls[a.Var])
	}
	f, ok := fm[a.Field]
	if !ok {
		return fmt.Errorf("instrument: class %s has no field %s", e.cls[a.Var], a.Field)
	}
	if a.NeedsLockOp {
		if a.Write {
			tx.WriteWord(o, f, tx.ReadWord(o, f)*3+1)
		} else if a.WriteIntent {
			tx.ReadWordForWrite(o, f)
		} else {
			tx.ReadWord(o, f)
		}
	} else {
		if a.Write {
			o.SetRawWord(f, o.RawWord(f)*3+1)
		} else {
			o.RawWord(f)
		}
	}
	return nil
}
