package stm

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"
)

// The flight recorder keeps the last recorderSize protocol events on
// every runtime. It holds the contention history — blocks, grants,
// deadlock resolutions, slot waits, bias revocations — for dumping on
// demand (Dump, or /events in internal/obs), without any harness and
// without locks: one fetch-add claims a slot, and per-slot sequence
// validation makes torn (overwritten-while-read) slots detectable, so
// readers simply skip them.
//
// It records every event the runtime emits, because every EventKind
// marks contention: the uncontended path (begin, an access in any read
// mode, commit) emits none, so the recorder costs it nothing, and the
// counters (Stats, Profile) say how often it ran.

// recorderSize is the ring capacity in events, a power of two.
const recorderSize = 256

// recSlot is one ring slot: a sequence word plus the packed payload.
// Everything is atomic so concurrent overwrite is a torn read the
// sequence check catches, never a data race.
type recSlot struct {
	seq atomic.Uint64 // logicalIndex*2 + 2 when stable; odd while writing
	w   [7]atomic.Uint64
}

// FlightRecorder is the fixed-size lock-free protocol-event ring.
type FlightRecorder struct {
	mask   uint64
	start  time.Time
	cursor atomic.Uint64
	slots  []recSlot
}

// newFlightRecorder returns a ring of size slots; size is a power of
// two, so slot selection is one AND.
func newFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{
		mask:  uint64(size - 1),
		start: time.Now(),
		slots: make([]recSlot, size),
	}
}

// Cap returns the ring capacity in events.
func (r *FlightRecorder) Cap() int { return len(r.slots) }

// Recorded returns the total number of events recorded since creation
// (not capped by the ring size).
func (r *FlightRecorder) Recorded() uint64 { return r.cursor.Load() }

// Payload packing, LSB first in w[0]:
//
//	[0..7]   kind      [8..15] queue ID
//	[16] write  [17] upgrader
//	[24..31] deadlock-cycle length (clamped to 8)
//	[32..63] txID+1, modulo 2^32
//
// w[1] ticket, w[2] lock-word address, w[3] nanos since recorder start,
// w[4] = otherID+1 (low 32 bits) | victimID+1 (high 32 bits), w[5..6]
// up to 8 cycle member IDs, 16 bits each. Transaction IDs are virtual
// and unbounded, so the packed forms are modular: the main ID keeps 32
// bits (exact for the first 4G transactions), cycle members keep 16 —
// a documented diagnostic truncation, acceptable because the cycle
// list only disambiguates members within one dump. IDs are stored +1
// so 0 means "not applicable".
func (r *FlightRecorder) record(ev *Event) {
	idx := r.cursor.Add(1) - 1
	s := &r.slots[idx&r.mask]
	s.seq.Store(idx*2 + 1) // claim: odd while the payload is in flux

	var w0 uint64
	w0 |= uint64(ev.Kind)
	w0 |= uint64(ev.QID) << 8
	if ev.Write {
		w0 |= 1 << 16
	}
	if ev.Upgrader {
		w0 |= 1 << 17
	}
	w0 |= (uint64(ev.TxID+1) & 0xffffffff) << 32

	var ov uint64
	if ev.Kind == EvSlotGrant {
		ov |= uint64(ev.OtherID+1) & 0xffffffff
	}
	if ev.Kind == EvDeadlock {
		ov |= (uint64(ev.VictimID+1) & 0xffffffff) << 32
	}

	var cycLo, cycHi uint64
	n := len(ev.CycleIDs)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		m := uint64(ev.CycleIDs[i]+1) & 0xffff
		if i < 4 {
			cycLo |= m << (16 * uint(i))
		} else {
			cycHi |= m << (16 * uint(i-4))
		}
	}
	w0 |= uint64(n) << 24

	s.w[0].Store(w0)
	s.w[1].Store(ev.Ticket)
	var addr uint64
	if ev.Addr != nil {
		addr = uint64(uintptr(unsafe.Pointer(ev.Addr)))
	}
	s.w[2].Store(addr)
	s.w[3].Store(uint64(time.Since(r.start)))
	s.w[4].Store(ov)
	s.w[5].Store(cycLo)
	s.w[6].Store(cycHi)

	s.seq.Store(idx*2 + 2) // publish
}

// RecordedEvent is one decoded flight-recorder entry.
type RecordedEvent struct {
	Seq      uint64        // global event index (monotonic)
	T        time.Duration // offset from recorder start
	Kind     EventKind
	TxID     int
	OtherID  int // EvSlotGrant slot; -1 when not applicable
	VictimID int // EvDeadlock victim; -1 when not applicable
	QID      int
	Write    bool
	Upgrader bool
	Ticket   uint64
	Addr     uintptr // lock word identity (for correlating events)
	CycleIDs []int   // EvDeadlock members (first 8)
}

// Snapshot decodes the retained events, oldest first. Slots overwritten
// while being read are skipped; the result is a consistent best-effort
// view, which is what a flight recorder promises.
func (r *FlightRecorder) Snapshot() []RecordedEvent {
	cur := r.cursor.Load()
	n := uint64(len(r.slots))
	lo := uint64(0)
	if cur > n {
		lo = cur - n
	}
	out := make([]RecordedEvent, 0, cur-lo)
	for idx := lo; idx < cur; idx++ {
		s := &r.slots[idx&r.mask]
		want := idx*2 + 2
		if s.seq.Load() != want {
			continue
		}
		var w [7]uint64
		for i := range w {
			w[i] = s.w[i].Load()
		}
		if s.seq.Load() != want {
			continue // overwritten mid-read
		}
		ev := RecordedEvent{
			Seq:      idx,
			T:        time.Duration(w[3]),
			Kind:     EventKind(w[0] & 0xff),
			TxID:     int((w[0]>>32)&0xffffffff) - 1,
			OtherID:  int(w[4]&0xffffffff) - 1,
			VictimID: int((w[4]>>32)&0xffffffff) - 1,
			QID:      int((w[0] >> 8) & 0xff),
			Write:    w[0]&(1<<16) != 0,
			Upgrader: w[0]&(1<<17) != 0,
			Ticket:   w[1],
			Addr:     uintptr(w[2]),
		}
		if cn := int((w[0] >> 24) & 0xff); cn > 0 {
			ev.CycleIDs = make([]int, cn)
			for i := 0; i < cn; i++ {
				word := w[5]
				sh := 16 * uint(i)
				if i >= 4 {
					word, sh = w[6], 16*uint(i-4)
				}
				ev.CycleIDs[i] = int((word>>sh)&0xffff) - 1
			}
		}
		out = append(out, ev)
	}
	return out
}

// String renders one event in the dump format (see Dump).
func (ev RecordedEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12s %-13s", ev.T.Round(time.Microsecond), ev.Kind)
	if ev.TxID >= 0 {
		fmt.Fprintf(&b, " tx=%d", ev.TxID)
	}
	if ev.Ticket != 0 {
		fmt.Fprintf(&b, " ticket=%d", ev.Ticket)
	}
	if ev.Addr != 0 {
		fmt.Fprintf(&b, " lock=0x%x", uint64(ev.Addr))
	}
	if ev.QID != 0 {
		fmt.Fprintf(&b, " q=%d", ev.QID)
	}
	if ev.Kind == EvDeadlock && ev.VictimID >= 0 {
		fmt.Fprintf(&b, " victim=%d", ev.VictimID)
	}
	if ev.Kind == EvSlotGrant && ev.OtherID >= 0 {
		fmt.Fprintf(&b, " slot=%d", ev.OtherID)
	}
	if len(ev.CycleIDs) > 0 {
		fmt.Fprintf(&b, " cycle=%v", ev.CycleIDs)
	}
	if ev.Write {
		b.WriteString(" write")
	}
	if ev.Upgrader {
		b.WriteString(" upgrader")
	}
	return b.String()
}

// Dump writes the retained events, one per line, oldest first:
//
//	seq=17       412µs blocked    tx=3 ticket=7 lock=0xc000123 q=2 write
//
// Times are offsets from recorder creation.
func (r *FlightRecorder) Dump(w io.Writer) error {
	evs := r.Snapshot()
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "flight recorder: no events retained")
		return err
	}
	for _, ev := range evs {
		if _, err := fmt.Fprintf(w, "seq=%-8d %s\n", ev.Seq, ev); err != nil {
			return err
		}
	}
	return nil
}
