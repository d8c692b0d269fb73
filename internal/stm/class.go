package stm

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Kind is the storage kind of a field or array element.
type Kind uint8

const (
	// KindWord stores a 64-bit word (integers, floats via math.Float64bits,
	// booleans as 0/1).
	KindWord Kind = iota
	// KindRef stores a reference to another Object (or nil).
	KindRef
	// KindStr stores an immutable Go string. The paper's Java prototype
	// stores strings as ordinary instances; a dedicated kind keeps the Go
	// model allocation-free on the access fast path.
	KindStr
)

func (k Kind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindRef:
		return "ref"
	case KindStr:
		return "str"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// FieldID names a field of a Class. IDs are dense per class and returned
// by Class.Field.
type FieldID int32

// FieldSpec declares one field when building a Class.
type FieldSpec struct {
	Name string
	Kind Kind
	// Final marks a field that is assigned only during construction.
	// Final fields require no synchronization at all (paper Table 1)
	// because constructors cannot split: other transactions only ever see
	// initialized final fields.
	Final bool
}

type fieldMeta struct {
	name   string
	kind   Kind
	final  bool
	idx    int32 // index into the kind-specific storage slice
	lockID int32 // index into the lock slab; -1 for final fields
	siteID int32 // global contention-profile site; -1 for final fields
}

// Class describes the layout of Objects: the field table, per-field kind
// and finality, and the lock-slot assignment. It plays the role of the
// Java class metadata the paper's bytecode transformer consults.
type Class struct {
	name    string
	fields  []fieldMeta
	byName  map[string]FieldID
	nWords  int32
	nRefs   int32
	nStrs   int32
	nLocks  int32
	isArray bool
	elem    Kind  // element kind when isArray
	siteID  int32 // contention-profile site of array classes; -1 otherwise
	// layout is {Object; [nWords]uint64; [nRefs]*Object; [nStrs]string},
	// one allocation per instance as a JVM new is; the words start right
	// after Object, refs and strs at refsOff and strsOff.
	layout           reflect.Type
	refsOff, strsOff uintptr
}

// NewClass builds a class from field specifications. Field names must be
// unique; NewClass panics otherwise (a class definition error is a
// programming error, not a runtime condition).
func NewClass(name string, specs ...FieldSpec) *Class {
	c := &Class{name: name, byName: make(map[string]FieldID, len(specs)), siteID: -1}
	for _, s := range specs {
		if _, dup := c.byName[s.Name]; dup {
			panic(fmt.Sprintf("stm: class %s: duplicate field %s", name, s.Name))
		}
		m := fieldMeta{name: s.Name, kind: s.Kind, final: s.Final, lockID: -1, siteID: -1}
		switch s.Kind {
		case KindWord:
			m.idx = c.nWords
			c.nWords++
		case KindRef:
			m.idx = c.nRefs
			c.nRefs++
		case KindStr:
			m.idx = c.nStrs
			c.nStrs++
		default:
			panic(fmt.Sprintf("stm: class %s: field %s: unknown kind %v", name, s.Name, s.Kind))
		}
		if !s.Final {
			m.lockID = c.nLocks
			c.nLocks++
			m.siteID = registerSite(SiteInfo{Class: name, Field: s.Name})
		}
		c.byName[s.Name] = FieldID(len(c.fields))
		c.fields = append(c.fields, m)
	}
	// Empty arrays are left out: StructOf pads a trailing zero-size one.
	layout := []reflect.StructField{{Name: "O", Type: reflect.TypeFor[Object]()}}
	c.refsOff = unsafe.Sizeof(Object{}) + 8*uintptr(c.nWords)
	c.strsOff = c.refsOff + 8*uintptr(c.nRefs)
	add := func(name string, n int32, t reflect.Type) {
		if n > 0 {
			layout = append(layout, reflect.StructField{Name: name, Type: reflect.ArrayOf(int(n), t)})
		}
	}
	add("W", c.nWords, reflect.TypeFor[uint64]())
	add("R", c.nRefs, reflect.TypeFor[*Object]())
	add("S", c.nStrs, reflect.TypeFor[string]())
	c.layout = reflect.StructOf(layout)
	return c
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// NumFields returns the number of declared fields.
func (c *Class) NumFields() int { return len(c.fields) }

// NumLocks returns the number of lock slots instances of c carry
// (one per non-final field).
func (c *Class) NumLocks() int { return int(c.nLocks) }

// IsArray reports whether c describes arrays rather than fixed-layout
// instances.
func (c *Class) IsArray() bool { return c.isArray }

// Field resolves a field name to its FieldID; it panics on unknown names
// (class misuse is a programming error).
func (c *Class) Field(name string) FieldID {
	id, ok := c.byName[name]
	if !ok {
		panic(fmt.Sprintf("stm: class %s has no field %s", c.name, name))
	}
	return id
}

// FieldKind returns the storage kind of field f.
func (c *Class) FieldKind(f FieldID) Kind { return c.fields[f].kind }

// FieldFinal reports whether field f is final.
func (c *Class) FieldFinal(f FieldID) bool { return c.fields[f].final }

// FieldName returns the declared name of field f.
func (c *Class) FieldName(f FieldID) string { return c.fields[f].name }

// Array classes: arrays are Objects whose storage and lock slab are sized
// at allocation time, with one lock per element (paper §3.2: array
// element-level conflict detection granularity).
var (
	arrayWordClass = &Class{name: "[]word", isArray: true, elem: KindWord}
	arrayRefClass  = &Class{name: "[]ref", isArray: true, elem: KindRef}
	arrayStrClass  = &Class{name: "[]str", isArray: true, elem: KindStr}
)

// Array elements share one contention-profile site per array class: the
// element index is dynamic, the class is the static site identity.
func init() {
	for _, c := range []*Class{arrayWordClass, arrayRefClass, arrayStrClass} {
		c.siteID = registerSite(SiteInfo{Class: c.name, Array: true})
	}
}
