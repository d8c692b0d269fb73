// Package instrument reproduces the compile-time half of the paper: the
// bytecode transformation tool (§4.1) that inserts STM lock operations
// before every synchronized memory access, and the intraprocedural
// optimizations of §3.3 that remove them again where they are provably
// redundant:
//
//  1. A dataflow analysis removes a lock check when the location is
//     already synchronized on all control-flow paths leading to the
//     access — exploiting the canSplit property: calls to methods that
//     cannot split preserve the locked set.
//  2. Lock operations are moved out of loops when the locking order is
//     preserved.
//  3. Consecutive field accesses on the same instance are combined to
//     eliminate repeated is-new checks.
//  4. Private fields assigned only in constructors are inferred final
//     and lose their synchronization entirely.
//
// Since Go has no bytecode to transform, the tool operates on a small
// structured IR (classes, methods with canSplit, loops, branches, field
// and array accesses, calls with allowSplit, split) — the same shape the
// paper's Soot-based tool sees after decompilation to a structured form.
// A static inliner models the HotSpot-profile-driven inlining of §4.1,
// and an interpreter executes transformed programs against the real STM
// so the effect of each pass is measurable (the ablation benchmarks).
package instrument

import "fmt"

// Program is a set of classes and methods.
type Program struct {
	Classes map[string]*ClassDef
	Methods map[string]*Method
}

// ClassDef declares a class's fields.
type ClassDef struct {
	Name   string
	Fields []*FieldDef
}

// FieldDef is one field. Final may be declared or inferred (InferFinals
// sets Inferred on fields it promotes).
type FieldDef struct {
	Name     string
	Final    bool
	Inferred bool
	// assignedOutsideCtor is bookkeeping for final inference.
	assignedOutsideCtor bool
	assignedInCtor      bool
}

// Method is a procedure. Constructors cannot have the canSplit property
// (paper §2.2); NewProgram enforces this.
type Method struct {
	Name        string
	Class       string // receiver class; "" for free functions
	Constructor bool
	CanSplit    bool
	Params      []string
	// ParamClasses optionally names the class of each parameter (same
	// length as Params, "" = unknown); it lets the transformer resolve
	// final fields on parameter accesses.
	ParamClasses []string
	// Overrides names the method this one overrides, if any. The paper's
	// §2.2 rule — a canSplit method can only override a canSplit method —
	// is enforced by Check (otherwise a callee resolved through the
	// supertype could split unexpectedly).
	Overrides string
	// SplitRequired marks a method that cannot make progress without its
	// splits (§3.7: "certain methods must be able to split, e.g., a
	// method that sends data over the network and expects a response");
	// calling it inside a NoSplit block is a compile error.
	SplitRequired bool
	Body          *Block
}

// Block is a statement sequence.
type Block struct {
	Stmts []Stmt
}

// Stmt is one IR statement.
type Stmt interface{ stmt() }

// Access reads or writes Var.Field (or Var[Index] when IsArray). The
// transformer fills in the synchronization annotations; they start as
// zero values and are meaningless before Transform runs.
type Access struct {
	Var     string
	Field   string
	IsArray bool
	Index   string // index variable for array accesses
	Write   bool

	// Annotations (set by Transform):
	NeedsNewCheck bool // is-new check required
	NeedsLockOp   bool // full lock check/acquire required
	FinalAccess   bool // resolved to a final field: no synchronization
	Hoisted       bool // lock op moved in front of the enclosing loop
	// WriteIntent marks a read the intent-inference pass proved is
	// upgraded by a later write in the same straight-line block: the
	// lock is acquired in write mode up front (Tx.ReadWordForWrite),
	// so the upgrade — and any write-upgrade duel it could lose — never
	// happens.
	WriteIntent bool
}

func (*Access) stmt() {}

// New allocates an instance of Class into Dst.
type New struct {
	Dst   string
	Class string
}

func (*New) stmt() {}

// NewArray allocates an array into Dst.
type NewArray struct {
	Dst  string
	Size int
}

func (*NewArray) stmt() {}

// Assign copies a reference: Dst = Src.
type Assign struct {
	Dst, Src string
}

func (*Assign) stmt() {}

// Call invokes a method. AllowSplit is the paper's call-site modifier;
// calling a canSplit method without it is a compile error (Check).
type Call struct {
	Method     string
	AllowSplit bool
	Args       []string
}

func (*Call) stmt() {}

// Split ends the current atomic section.
type Split struct{}

func (*Split) stmt() {}

// NoSplit composes everything in Body into the enclosing atomic section
// (paper §3.7): split instructions inside it are ignored, and calling a
// method that REQUIRES a split (Method.SplitRequired, e.g. a network
// round trip) inside it is a compile error.
type NoSplit struct {
	Body *Block
}

func (*NoSplit) stmt() {}

// Loop repeats Body Count times. IdxVar, when set, names an integer
// variable holding the iteration index (used by array accesses).
type Loop struct {
	Count  int
	IdxVar string
	Body   *Block
}

func (*Loop) stmt() {}

// If branches on an opaque condition; both arms are analyzed.
type If struct {
	Then *Block
	Else *Block // may be nil
}

func (*If) stmt() {}

// HoistedLock is inserted in front of a loop by the hoisting pass; it
// performs the lock operation once that the in-loop access no longer
// repeats. The annotation pass marks it Elided when the field turns out
// to be final (no lock exists to hoist) or the location is already
// locked on entry.
type HoistedLock struct {
	Var     string
	Field   string
	IsArray bool
	Index   string
	Write   bool
	Elided  bool
}

func (*HoistedLock) stmt() {}

// NewProgram creates an empty program.
func NewProgram() *Program {
	return &Program{
		Classes: make(map[string]*ClassDef),
		Methods: make(map[string]*Method),
	}
}

// AddClass declares a class.
func (p *Program) AddClass(name string, fields ...string) *ClassDef {
	c := &ClassDef{Name: name}
	for _, f := range fields {
		c.Fields = append(c.Fields, &FieldDef{Name: f})
	}
	p.Classes[name] = c
	return c
}

// Field looks a field up.
func (c *ClassDef) Field(name string) *FieldDef {
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// SetFinal declares a field final.
func (c *ClassDef) SetFinal(name string) {
	if f := c.Field(name); f != nil {
		f.Final = true
	}
}

// AddMethod declares a method.
func (p *Program) AddMethod(m *Method) *Method {
	if m.Constructor && m.CanSplit {
		panic("instrument: constructors cannot have the canSplit property")
	}
	p.Methods[m.Name] = m
	return m
}

// Check enforces the paper's static rules (§2.2): a split may appear
// only in canSplit methods; a call to a canSplit method requires the
// allowSplit modifier and is itself only legal inside a canSplit method;
// constructors cannot split.
func (p *Program) Check() error {
	for _, m := range p.Methods {
		if m.Overrides != "" {
			base, ok := p.Methods[m.Overrides]
			if !ok {
				return fmt.Errorf("instrument: %s overrides unknown method %s", m.Name, m.Overrides)
			}
			if m.CanSplit && !base.CanSplit {
				return fmt.Errorf("instrument: canSplit %s cannot override non-canSplit %s (§2.2)",
					m.Name, base.Name)
			}
		}
		if err := p.checkBlock(m, m.Body, false); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) checkBlock(m *Method, b *Block, inNoSplit bool) error {
	if b == nil {
		return nil
	}
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *Split:
			// Inside a noSplit block, splits are ignored rather than
			// illegal (§3.7), so they need no canSplit there.
			if !m.CanSplit && !inNoSplit {
				return fmt.Errorf("instrument: split in method %s without canSplit", m.Name)
			}
		case *Call:
			callee, ok := p.Methods[st.Method]
			if !ok {
				return fmt.Errorf("instrument: call to unknown method %s", st.Method)
			}
			if callee.CanSplit && !st.AllowSplit {
				return fmt.Errorf("instrument: method %s calls canSplit %s without allowSplit",
					m.Name, st.Method)
			}
			if callee.CanSplit && !m.CanSplit {
				return fmt.Errorf("instrument: non-canSplit %s calls canSplit %s",
					m.Name, st.Method)
			}
			if len(st.Args) != len(callee.Params) {
				return fmt.Errorf("instrument: call to %s with %d args, want %d",
					st.Method, len(st.Args), len(callee.Params))
			}
			if inNoSplit && p.requiresSplit(callee, map[string]bool{}) {
				return fmt.Errorf("instrument: method %s requires a split and cannot run inside a noSplit block (§3.7)",
					st.Method)
			}
		case *NoSplit:
			if err := p.checkBlock(m, st.Body, true); err != nil {
				return err
			}
		case *Loop:
			if err := p.checkBlock(m, st.Body, inNoSplit); err != nil {
				return err
			}
		case *If:
			if err := p.checkBlock(m, st.Then, inNoSplit); err != nil {
				return err
			}
			if err := p.checkBlock(m, st.Else, inNoSplit); err != nil {
				return err
			}
		}
	}
	return nil
}

// requiresSplit reports whether m cannot make progress without splitting
// (its own SplitRequired flag, or transitively via a callee outside any
// noSplit block).
func (p *Program) requiresSplit(m *Method, seen map[string]bool) bool {
	if m.SplitRequired {
		return true
	}
	if seen[m.Name] {
		return false
	}
	seen[m.Name] = true
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == nil {
			return false
		}
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *Call:
				if callee, ok := p.Methods[st.Method]; ok && p.requiresSplit(callee, seen) {
					return true
				}
			case *Loop:
				if walk(st.Body) {
					return true
				}
			case *If:
				if walk(st.Then) || walk(st.Else) {
					return true
				}
				// NoSplit bodies cannot contain split-requiring calls
				// (Check rejects them), so they never propagate the
				// requirement.
			}
		}
		return false
	}
	return walk(m.Body)
}

// maySplit reports whether executing m can end the current atomic
// section (directly or transitively).
func (p *Program) maySplit(m *Method, seen map[string]bool) bool {
	if seen[m.Name] {
		return false
	}
	seen[m.Name] = true
	return p.blockMaySplit(m.Body, seen)
}

func (p *Program) blockMaySplit(b *Block, seen map[string]bool) bool {
	if b == nil {
		return false
	}
	for _, s := range b.Stmts {
		switch st := s.(type) {
		case *NoSplit:
			continue // splits inside are ignored (§3.7)
		case *Split:
			return true
		case *Call:
			if callee, ok := p.Methods[st.Method]; ok && p.maySplit(callee, seen) {
				return true
			}
		case *Loop:
			if p.blockMaySplit(st.Body, seen) {
				return true
			}
		case *If:
			if p.blockMaySplit(st.Then, seen) || p.blockMaySplit(st.Else, seen) {
				return true
			}
		}
	}
	return false
}

// MaySplit is the exported query used by the optimizer and tests.
func (p *Program) MaySplit(method string) bool {
	m, ok := p.Methods[method]
	if !ok {
		return false
	}
	return p.maySplit(m, map[string]bool{})
}
