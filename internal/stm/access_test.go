package stm

import (
	"fmt"
	"testing"
)

// pathsClass has one plain and one final field of every kind.
var pathsClass = NewClass("Paths",
	FieldSpec{Name: "w", Kind: KindWord},
	FieldSpec{Name: "r", Kind: KindRef},
	FieldSpec{Name: "s", Kind: KindStr},
	FieldSpec{Name: "fw", Kind: KindWord, Final: true},
	FieldSpec{Name: "fr", Kind: KindRef, Final: true},
	FieldSpec{Name: "fs", Kind: KindStr, Final: true},
)

// pathsRef is the value a ref slot starts with; pathsRef2 the one a
// write stores.
var pathsRef, pathsRef2 = NewCommitted(pathsClass), NewCommitted(pathsClass)

// accessRow is one typed accessor. at is the FieldID of a field row or
// the index of an element row.
type accessRow struct {
	name  string
	kind  Kind
	elem  bool
	write bool // takes the word in write mode: a write or a ForWrite read
	store bool // stores the kind's second value
	do    func(tx *Tx, o *Object, at int) any
}

var accessRows = []accessRow{
	{"ReadWord", KindWord, false, false, false, func(tx *Tx, o *Object, at int) any { return tx.ReadWord(o, FieldID(at)) }},
	{"WriteWord", KindWord, false, true, true, func(tx *Tx, o *Object, at int) any { tx.WriteWord(o, FieldID(at), 9); return nil }},
	{"ReadWordForWrite", KindWord, false, true, false, func(tx *Tx, o *Object, at int) any { return tx.ReadWordForWrite(o, FieldID(at)) }},
	{"ReadRef", KindRef, false, false, false, func(tx *Tx, o *Object, at int) any { return tx.ReadRef(o, FieldID(at)) }},
	{"WriteRef", KindRef, false, true, true, func(tx *Tx, o *Object, at int) any { tx.WriteRef(o, FieldID(at), pathsRef2); return nil }},
	{"ReadRefForWrite", KindRef, false, true, false, func(tx *Tx, o *Object, at int) any { return tx.ReadRefForWrite(o, FieldID(at)) }},
	{"ReadStr", KindStr, false, false, false, func(tx *Tx, o *Object, at int) any { return tx.ReadStr(o, FieldID(at)) }},
	{"WriteStr", KindStr, false, true, true, func(tx *Tx, o *Object, at int) any { tx.WriteStr(o, FieldID(at), "nine"); return nil }},
	{"ReadStrForWrite", KindStr, false, true, false, func(tx *Tx, o *Object, at int) any { return tx.ReadStrForWrite(o, FieldID(at)) }},
	{"ReadElem", KindWord, true, false, false, func(tx *Tx, o *Object, at int) any { return tx.ReadElem(o, at) }},
	{"WriteElem", KindWord, true, true, true, func(tx *Tx, o *Object, at int) any { tx.WriteElem(o, at, 9); return nil }},
	{"ReadElemForWrite", KindWord, true, true, false, func(tx *Tx, o *Object, at int) any { return tx.ReadElemForWrite(o, at) }},
	{"ReadElemRef", KindRef, true, false, false, func(tx *Tx, o *Object, at int) any { return tx.ReadElemRef(o, at) }},
	{"WriteElemRef", KindRef, true, true, true, func(tx *Tx, o *Object, at int) any { tx.WriteElemRef(o, at, pathsRef2); return nil }},
	{"ReadElemStr", KindStr, true, false, false, func(tx *Tx, o *Object, at int) any { return tx.ReadElemStr(o, at) }},
	{"WriteElemStr", KindStr, true, true, true, func(tx *Tx, o *Object, at int) any { tx.WriteElemStr(o, at, "nine"); return nil }},
}

// slotValues returns the first and second value of a slot of kind k.
func slotValues(k Kind) (first, second any) {
	switch k {
	case KindWord:
		return uint64(7), uint64(9)
	case KindRef:
		return pathsRef, pathsRef2
	}
	return "seven", "nine"
}

// slotAt returns the storage index behind at: a field's index into its
// kind's slice, or the element index itself.
func slotAt(o *Object, at int) int {
	if o.class.isArray {
		return at
	}
	return int(o.class.fields[at].idx)
}

func rawSlot(o *Object, k Kind, at int) any {
	i := slotAt(o, at)
	switch k {
	case KindWord:
		return o.words[i]
	case KindRef:
		return o.refs[i]
	}
	return o.strs[i]
}

func setRawSlot(o *Object, k Kind, at int, v any) {
	i := slotAt(o, at)
	switch k {
	case KindWord:
		o.words[i] = v.(uint64)
	case KindRef:
		o.refs[i] = v.(*Object)
	default:
		o.strs[i] = v.(string)
	}
}

// pathsField returns the plain or final field of kind k.
func pathsField(k Kind, final bool) int {
	name := map[Kind]string{KindWord: "w", KindRef: "r", KindStr: "s"}[k]
	if final {
		name = "f" + name
	}
	return int(pathsClass.Field(name))
}

// accessDeltas is what one access adds to the counters that say which
// paper Table 1 row served it.
type accessDeltas struct {
	checkNew, checkOwned, acquire, invis uint64
	undo                                 int
}

func (d accessDeltas) String() string {
	return fmt.Sprintf("new %d owned %d acquire %d invis %d undo %d",
		d.checkNew, d.checkOwned, d.acquire, d.invis, d.undo)
}

func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestAccessPathsAgree drives every typed accessor through every object
// state of paper Table 1 and pins the value it reads or writes, the
// counters that name the row that served it, and the undo it logs.
// Every accessor answers a state the same way, whichever kind it moves
// and whether it names a field or an element; its panics are pinned too.
func TestAccessPathsAgree(t *testing.T) {
	type column struct {
		name    string
		applies func(r accessRow) bool
		want    func(r accessRow) accessDeltas
	}
	all := func(accessRow) bool { return true }
	columns := []column{
		{"new", all, func(accessRow) accessDeltas { return accessDeltas{checkNew: 1} }},
		{"final", func(r accessRow) bool { return !r.elem && !r.write }, func(accessRow) accessDeltas { return accessDeltas{} }},
		{"local", all, func(r accessRow) accessDeltas {
			if r.write {
				return accessDeltas{undo: 1}
			}
			return accessDeltas{}
		}},
		{"owned read", func(r accessRow) bool { return !r.write }, func(accessRow) accessDeltas { return accessDeltas{checkOwned: 1} }},
		{"owned write", all, func(accessRow) accessDeltas { return accessDeltas{checkOwned: 1} }},
		{"fresh acquire", all, func(r accessRow) accessDeltas {
			if r.write {
				return accessDeltas{acquire: 1, undo: 1}
			}
			return accessDeltas{acquire: 1}
		}},
		{"upgrade", func(r accessRow) bool { return r.write }, func(accessRow) accessDeltas { return accessDeltas{acquire: 1, undo: 1} }},
		{"invisible", all, func(r accessRow) accessDeltas {
			switch {
			case r.write:
				return accessDeltas{acquire: 1, undo: 1}
			case r.kind == KindWord:
				return accessDeltas{invis: 1}
			}
			return accessDeltas{acquire: 1} // only words read invisibly
		}},
	}
	for _, r := range accessRows {
		for _, col := range columns {
			if !col.applies(r) {
				continue
			}
			t.Run(r.name+"/"+col.name, func(t *testing.T) {
				rt := NewRuntime()
				first, second := slotValues(r.kind)
				at := 1
				committed := func() *Object {
					if r.elem {
						return NewCommittedArray(r.kind, 2)
					}
					return NewCommitted(pathsClass)
				}
				if !r.elem {
					at = pathsField(r.kind, col.name == "final")
				}
				var o *Object
				if col.name == "invisible" {
					o = committed()
					setRawSlot(o, r.kind, at, first)
					rt.SeedInvisible(o.class, FieldID(at))
					// The first read installs the version array.
					prime := rt.Begin()
					readRow(r).do(prime, o, at)
					prime.Commit()
				}
				tx := rt.Begin()
				switch col.name {
				case "new":
					if r.elem {
						o = tx.NewArray(r.kind, 2)
					} else {
						o = tx.New(pathsClass)
					}
				case "local":
					if r.elem {
						o = tx.NewLocalArray(r.kind, 2)
					} else {
						o = tx.NewLocal(pathsClass)
					}
				case "invisible":
				default:
					o = committed()
				}
				if col.name != "invisible" {
					setRawSlot(o, r.kind, at, first)
				}
				switch col.name {
				case "owned read", "upgrade":
					readRow(r).do(tx, o, at)
				case "owned write":
					writeRow(r).do(tx, o, at)
					setRawSlot(o, r.kind, at, first)
				}
				before, undo := tx.n, len(tx.undo)
				got := r.do(tx, o, at)
				d := accessDeltas{
					checkNew:   tx.n.CheckNew - before.CheckNew,
					checkOwned: tx.n.CheckOwned - before.CheckOwned,
					acquire:    tx.n.Acquire - before.Acquire,
					invis:      tx.n.InvisReads - before.InvisReads,
					undo:       len(tx.undo) - undo,
				}
				if want := col.want(r); d != want {
					t.Errorf("deltas %v, want %v", d, want)
				}
				if r.store {
					if v := rawSlot(o, r.kind, at); v != second {
						t.Errorf("slot holds %v after the write, want %v", v, second)
					}
				} else if got != first {
					t.Errorf("read %v, want %v", got, first)
				}
				tx.Commit()
			})
		}
	}
	t.Run("panics", accessPanics)
}

// readRow and writeRow return the plain read and the write accessor of
// r's kind and shape.
func readRow(r accessRow) accessRow  { return findRow(r, false) }
func writeRow(r accessRow) accessRow { return findRow(r, true) }

func findRow(r accessRow, store bool) accessRow {
	for _, c := range accessRows {
		if c.kind == r.kind && c.elem == r.elem && c.store == store && c.write == store {
			return c
		}
	}
	panic("no row")
}

// accessPanics pins every accessor's panic messages: kind mismatch, a
// final write after construction, an element access on a non-array,
// and an index out of range on either side. Each fires before the
// access touches a lock, on a new object as on a committed one.
func accessPanics(t *testing.T) {
	other := map[Kind]Kind{KindWord: KindRef, KindRef: KindStr, KindStr: KindWord}
	for _, r := range accessRows {
		for _, isNew := range []bool{false, true} {
			rt := NewRuntime()
			tx := rt.Begin()
			obj, arr := NewCommitted(pathsClass), NewCommittedArray(r.kind, 2)
			wrong := NewCommittedArray(other[r.kind], 2)
			if isNew {
				obj, arr, wrong = tx.New(pathsClass), tx.NewArray(r.kind, 2), tx.NewArray(other[r.kind], 2)
			}
			type probe struct {
				o    *Object
				at   int
				want string
			}
			var probes []probe
			if r.elem {
				probes = []probe{
					{wrong, 0, fmt.Sprintf("stm: array of %v accessed as %v", other[r.kind], r.kind)},
					{obj, 0, "stm: element access on non-array Paths"},
					{arr, -1, fmt.Sprintf("stm: index -1 out of range for array []%v of length 2", r.kind)},
					{arr, 2, fmt.Sprintf("stm: index 2 out of range for array []%v of length 2", r.kind)},
				}
			} else {
				f := pathsField(other[r.kind], false)
				probes = []probe{{obj, f, fmt.Sprintf("stm: field Paths.%s is %v, accessed as %v",
					pathsClass.FieldName(FieldID(f)), other[r.kind], r.kind)}}
				if r.store {
					fin := pathsField(r.kind, true)
					want := fmt.Sprintf("stm: write to final field Paths.%s outside construction",
						pathsClass.FieldName(FieldID(fin)))
					if isNew {
						want = "" // construction
					}
					probes = append(probes, probe{obj, fin, want})
				}
			}
			for _, p := range probes {
				if got := panicOf(func() { r.do(tx, p.o, p.at) }); got != p.want {
					t.Errorf("%s (new %t) at %d: panic %q, want %q", r.name, isNew, p.at, got, p.want)
				}
			}
			if tx.n.Acquire != 0 || len(tx.lockLog) != 0 {
				t.Errorf("%s (new %t): a panicking access acquired", r.name, isNew)
			}
			tx.Commit()
		}
	}
}

// TestNewIsOneAllocation: an instance and its storage of every kind are
// one heap allocation, as a JVM new is.
func TestNewIsOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if n := testing.AllocsPerRun(100, func() { NewCommitted(pathsClass) }); n != 1 {
		t.Fatalf("NewCommitted made %v allocations, want 1", n)
	}
}
