package stm

import "unsafe"

// Multi-word batch acquisition: a caller that knows every lock word a
// step will touch hands them to AcquireBatch, which takes them in one
// global order — by object address, then by field or element index —
// through the single-word access path. Two transactions whose batches
// overlap therefore never deadlock against each other: each batch waits
// on at most one word at a time, and both walk the shared words in the
// same order. (Locks already held from before the batch are not
// reordered, so cycles through pre-held locks remain possible; those
// are the detector's job, as ever.) A batch never reads invisibly: the
// caller's raw accesses that follow assume a held lock.

// BatchAccess names one access of an AcquireBatch call: a word field
// of an object, or a word element of an array.
type BatchAccess struct {
	Obj    *Object
	Field  FieldID // field accessed when !IsElem
	Index  int     // element accessed when IsElem
	IsElem bool
	Write  bool
}

// batchKey is one access's place in the batch order: object address,
// then index, then tail. It holds the object's address and the
// access's position in accs rather than pointers, so the reusable
// scratch pins nothing; every field is a whole word, so building and
// moving keys never reads back a partly written word.
type batchKey struct {
	obj  uintptr
	idx  int    // field or element index; orders an object's words as their lock indices do
	tail uint64 // keyElem | keyRead | position in accs
}

const (
	keyElem = 1 << 63
	keyRead = 1 << 62 // set for reads, so the write of a word sorts first
)

// sameWord reports whether k and p name the same field or element.
func (k *batchKey) sameWord(p *batchKey) bool {
	return k.obj == p.obj && k.idx == p.idx && k.tail&keyElem == p.tail&keyElem
}

func (k *batchKey) before(p *batchKey) bool {
	if k.obj != p.obj {
		return k.obj < p.obj
	}
	if k.idx != p.idx {
		return k.idx < p.idx
	}
	return k.tail < p.tail
}

// AcquireBatch acquires the lock words behind accs in the batch order.
// After it returns, every access in accs may be performed raw
// (Object.RawWord/SetRawWord and friends) until the transaction ends:
// reads are covered by the held read locks, writes by the held write
// locks with their undo captured here. Each access is resolved by
// ReadWord (ReadWordForWrite for a write, ReadElem and ReadElemForWrite
// for an element): new instances, thread-local memory and final fields
// take no lock, and a write to a final field of a shared object panics
// here, as WriteWord does.
//
// Only word-kind storage can be batched.
func (tx *Tx) AcquireBatch(accs []BatchAccess) {
	keys := tx.batchScratch[:0]
	for i := range accs {
		a := &accs[i]
		k := batchKey{obj: uintptr(unsafe.Pointer(a.Obj)), idx: int(a.Field), tail: uint64(i)}
		if a.IsElem {
			k.idx = a.Index
			k.tail |= keyElem
		}
		if !a.Write {
			k.tail |= keyRead
		}
		// Insertion sort: batches are a few words.
		j := len(keys)
		keys = append(keys, k)
		for ; j > 0 && k.before(&keys[j-1]); j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	tx.batchScratch = keys
	// The pin is undone on every exit, an abort included: noInvis
	// survives Reset, and an aborted batch must not leave the replay of
	// its section reading visibly. A batch write declares no compiler
	// intent, so the ForWrite reads below leave IntentHints as it was.
	saved, hints := tx.noInvis, tx.n.IntentHints
	tx.noInvis = true
	defer func() { tx.noInvis, tx.n.IntentHints = saved, hints }()
	var words uint64
	for i := range keys {
		k := &keys[i]
		if i > 0 && k.sameWord(&keys[i-1]) {
			continue // the key sorted first covers it
		}
		a := &accs[k.tail&^(keyElem|keyRead)]
		o := a.Obj
		switch {
		case a.IsElem && a.Write:
			tx.ReadElemForWrite(o, a.Index)
		case a.IsElem:
			tx.ReadElem(o, a.Index)
		case a.Write:
			tx.ReadWordForWrite(o, a.Field)
		default:
			tx.ReadWord(o, a.Field)
		}
		final := !a.IsElem && o.class.fields[a.Field].final
		if !final && !o.local && o.locks.Load() != nil {
			words++ // the access reached lockFor
		}
	}
	if words > 0 {
		tx.n.BatchAcquires++
		tx.n.BatchWords += words
	}
}
