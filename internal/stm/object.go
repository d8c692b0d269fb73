package stm

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"
)

// lockSlab holds the lock words of one instance (paper Figure 4a: the
// "field locks" array reached through one additional indirection, which
// is what makes lazy allocation possible).
type lockSlab struct {
	words []uint64
	// vers is the word-version array of the invisible-read tier
	// (readset.go): one version stamp per lock word, nil until the first
	// would-be-invisible reader of the object installs it. Committing
	// writers stamp vers[i] before clearing lock word i; invisible
	// readers validate against it. A nil vers means no reader of this
	// object ever went invisible and writers skip stamping entirely.
	vers atomic.Pointer[[]uint64]
}

// installVersions publishes the slab's version array if none exists,
// reporting whether this call performed the install (for byte
// accounting by the caller). All words start at implicit version 0,
// below any stamped version (the clock starts at 1, see clock.go).
func (s *lockSlab) installVersions() bool {
	vers := make([]uint64, len(s.words))
	return s.vers.CompareAndSwap(nil, &vers)
}

// unallocSlab is the UNALLOC constant of paper Figure 5: the instance has
// committed but no lock slab has been allocated for it yet.
var unallocSlab = &lockSlab{}

// Object is an instance of a Class, or an array when the class is an
// array class. The locks pointer encodes the instance's synchronization
// state:
//
//	nil          the instance is new in the transaction that allocated it;
//	             accesses need no locking and writes need no undo
//	unallocSlab  committed, lock slab not yet allocated (lazy allocation)
//	other        allocated slab; one lock word per non-final field or element
type Object struct {
	class *Class
	locks atomic.Pointer[lockSlab]
	words []uint64
	refs  []*Object
	strs  []string
	// local marks thread-local memory (paper §3.5): accesses skip locking
	// entirely, but writes are undo-logged so an abort can restore state.
	local bool
}

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// Len returns the element count of an array object; it panics for
// non-array objects.
func (o *Object) Len() int {
	if !o.class.isArray {
		panic("stm: Len on non-array object " + o.class.name)
	}
	switch o.class.elem {
	case KindWord:
		return len(o.words)
	case KindRef:
		return len(o.refs)
	default:
		return len(o.strs)
	}
}

// IsLocal reports whether the object is thread-local memory.
func (o *Object) IsLocal() bool { return o.local }

// newObject allocates an instance of c and its storage as one c.layout,
// with words, refs and strs pointing into it. (reflect.MakeSlice would
// skip New's pointer-type lookup but allocates a slice header too.)
func newObject(c *Class) *Object {
	p := reflect.New(c.layout).UnsafePointer()
	o := (*Object)(p)
	o.class = c
	if c.nWords > 0 {
		o.words = unsafe.Slice((*uint64)(unsafe.Add(p, unsafe.Sizeof(Object{}))), c.nWords)
	}
	if c.nRefs > 0 {
		o.refs = unsafe.Slice((**Object)(unsafe.Add(p, c.refsOff)), c.nRefs)
	}
	if c.nStrs > 0 {
		o.strs = unsafe.Slice((*string)(unsafe.Add(p, c.strsOff)), c.nStrs)
	}
	return o
}

func newArray(elem Kind, n int) *Object {
	var o *Object
	switch elem {
	case KindWord:
		o = &Object{class: arrayWordClass, words: make([]uint64, n)}
	case KindRef:
		o = &Object{class: arrayRefClass, refs: make([]*Object, n)}
	case KindStr:
		o = &Object{class: arrayStrClass, strs: make([]string, n)}
	default:
		panic(fmt.Sprintf("stm: NewArray: unknown element kind %v", elem))
	}
	return o
}

// numLockSlots returns the size the object's lock slab must have.
func (o *Object) numLockSlots() int {
	if o.class.isArray {
		return o.Len()
	}
	return int(o.class.nLocks)
}

// NewCommitted allocates an instance outside any transaction, already in
// the committed (UNALLOC) state. It is intended for building input data
// during benchmark setup, before measured transactions run; the paper's
// prototype builds such data inside ordinary transactions, which is
// equally available via Tx.New.
func NewCommitted(c *Class) *Object {
	o := newObject(c)
	o.locks.Store(unallocSlab)
	return o
}

// NewCommittedArray allocates an array outside any transaction, already
// committed. See NewCommitted.
func NewCommittedArray(elem Kind, n int) *Object {
	o := newArray(elem, n)
	o.locks.Store(unallocSlab)
	return o
}

// CommittedWord reads a word field of a quiescent object without a
// transaction. It bypasses all synchronization and is only correct when
// no transaction can touch the object — setup and post-run inspection
// in tests, benchmarks, and the stress harness.
func CommittedWord(o *Object, f FieldID) uint64 {
	return o.words[o.class.fields[f].idx]
}

// SetCommittedWord writes a word field of a quiescent object without a
// transaction. See CommittedWord for when this is safe.
func SetCommittedWord(o *Object, f FieldID, v uint64) {
	o.words[o.class.fields[f].idx] = v
}
