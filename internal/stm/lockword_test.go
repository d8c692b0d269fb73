package stm

import (
	"testing"
	"testing/quick"
)

func TestLockWordLayoutConstants(t *testing.T) {
	if MaxTxns != 56 {
		t.Fatalf("MaxTxns = %d, want 56 (paper §4.2: 56-bit bit set)", MaxTxns)
	}
	if bitsetMask != (1<<56)-1 {
		t.Fatalf("bitsetMask = %x", bitsetMask)
	}
	if wFlag != 1<<56 || reservedBit != 1<<57 {
		t.Fatalf("W = %x, reserved = %x; want bits 56 and 57", wFlag, reservedBit)
	}
	if queueBits&(bitsetMask|wFlag|reservedBit) != 0 {
		t.Fatal("queue bits overlap other fields")
	}
	if bitsetMask|wFlag|reservedBit|queueBits != ^uint64(0) {
		t.Fatal("lock word fields do not cover 64 bits")
	}
}

func TestWellformed(t *testing.T) {
	for _, c := range []struct {
		name string
		w    uint64
		ok   bool
	}{
		{"free", 0, true},
		{"readers", txMask(0) | txMask(55), true},
		{"writer with queue", wFlag | txMask(3) | 1<<queueShift, true},
		{"biased reader", txMask(7) | biasQID<<queueShift, true},
		{"writer without holder", wFlag, false},
		{"two writers", wFlag | txMask(1) | txMask(2), false},
		{"dead queue ID", wordWithQueue(0, MaxTxns+1), false},
		{"reserved bit", reservedBit, false},
		{"reserved bit with queue", reservedBit | txMask(4) | 2<<queueShift, false},
	} {
		if err := wellformed(c.w); (err == nil) != c.ok {
			t.Errorf("%s: wellformed(%s) = %v, want ok=%t", c.name, formatWord(c.w), err, c.ok)
		}
	}
}

func TestTxMaskDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for id := 0; id < MaxTxns; id++ {
		m := txMask(id)
		if m == 0 || m&bitsetMask != m {
			t.Fatalf("txMask(%d) = %x escapes the bit set", id, m)
		}
		if seen[m] {
			t.Fatalf("txMask(%d) duplicates another mask", id)
		}
		seen[m] = true
	}
}

func TestQueueIDRoundTrip(t *testing.T) {
	for qid := 0; qid <= MaxTxns; qid++ {
		for _, base := range []uint64{0, bitsetMask, wFlag | 7, reservedBit | txMask(55)} {
			w := wordWithQueue(base, qid)
			if got := wordQueueID(w); got != qid {
				t.Fatalf("queue ID round trip: set %d, got %d (base %x)", qid, got, base)
			}
			if wordHolders(w) != wordHolders(base) {
				t.Fatalf("wordWithQueue perturbed holders: %x -> %x", base, w)
			}
			if wordIsWrite(w) != wordIsWrite(base) || w&reservedBit != base&reservedBit {
				t.Fatalf("wordWithQueue perturbed flags: %x -> %x", base, w)
			}
		}
	}
}

func TestQueueIDRoundTripProperty(t *testing.T) {
	f := func(base uint64, qid uint8) bool {
		q := int(qid % (MaxTxns + 1))
		w := wordWithQueue(base, q)
		return wordQueueID(w) == q && wordHolders(w) == wordHolders(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrantWordProperty(t *testing.T) {
	rt := NewRuntime()
	tx := rt.Begin()
	defer tx.Commit()
	tx.ensureSlot()

	f := func(holdersRaw uint64, write, w bool) bool {
		word := holdersRaw & bitsetMask &^ tx.mask
		if w && bits1(word) == 1 {
			word |= wFlag
		}
		nw, ok := grantWord(word, tx, write)
		if write {
			// A write grant is only possible on a free lock.
			if wordHolders(word) != 0 {
				return !ok
			}
			return ok && wordIsWrite(nw) && wordHolders(nw) == tx.mask
		}
		// A read grant is possible unless a writer holds the lock.
		if wordIsWrite(word) {
			return !ok
		}
		return ok && wordHolders(nw) == wordHolders(word)|tx.mask && !wordIsWrite(nw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func bits1(w uint64) int {
	n := 0
	for w != 0 {
		w &= w - 1
		n++
	}
	return n
}

func TestGrantWordUpgrade(t *testing.T) {
	rt := NewRuntime()
	tx := rt.Begin()
	defer tx.Commit()
	tx.ensureSlot() // a zero mask would make every check below vacuous

	// Sole reader may upgrade.
	w := tx.mask
	nw, ok := grantWord(w, tx, true)
	if !ok || !wordIsWrite(nw) || wordHolders(nw) != tx.mask {
		t.Fatalf("sole-reader upgrade failed: %s ok=%t", formatWord(nw), ok)
	}
	// The grant keeps the queue ID and touches no other bit.
	nw, ok = grantWord(wordWithQueue(w, 5), tx, true)
	if !ok || nw != wordWithQueue(w|wFlag, 5) || wellformed(nw) != nil {
		t.Fatalf("queued upgrade grant: %s ok=%t", formatWord(nw), ok)
	}
	// Not with other readers present.
	if _, ok = grantWord(w|txMask(3), tx, true); ok {
		t.Fatal("upgrade granted despite another reader")
	}
}
