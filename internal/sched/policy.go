package sched

import (
	"fmt"
	"strings"

	"repro/internal/stm"
)

// A Policy makes every nondeterministic choice of a schedule: which
// goroutine runs next at each yield point, and whether each fault is
// injected. Runs are reproducible because the scheduler consults the
// policy at a deterministic sequence of points and records every answer
// as a Decision; a recorded decision list replayed through ReplayPolicy
// reproduces (a prefix of) the same schedule without the PRNG.

// FaultKind identifies one fault-injection choice.
type FaultKind uint8

const (
	// FaultCAS forces a lock-word (or ID-pool) CAS to fail.
	FaultCAS FaultKind = iota
)

var faultNames = [...]string{
	FaultCAS: "cas-fail",
}

func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return "fault?"
}

// DecisionKind discriminates Decision entries.
type DecisionKind uint8

const (
	// DecSwitch is a scheduling choice at a yield point.
	DecSwitch DecisionKind = iota
	// DecFault is a fault-injection choice.
	DecFault
)

// Decision is one recorded policy answer. For DecSwitch, Target is the
// chosen goroutine index, or -1 for "stay with the current goroutine"
// (the neutral choice). For DecFault, Fault reports whether the fault
// fired (false is neutral).
type Decision struct {
	Kind   DecisionKind
	Point  stm.YieldPoint // context of a DecSwitch
	Target int
	FKind  FaultKind
	Fault  bool
}

// Neutral reports whether the decision is the do-nothing choice; only
// non-neutral decisions make a schedule interesting, and shrinking works
// by neutralizing them.
func (d Decision) Neutral() bool {
	if d.Kind == DecSwitch {
		return d.Target < 0
	}
	return !d.Fault
}

func (d Decision) String() string {
	if d.Kind == DecSwitch {
		if d.Target < 0 {
			return fmt.Sprintf("stay@%v", d.Point)
		}
		return fmt.Sprintf("switch->g%d@%v", d.Target, d.Point)
	}
	return fmt.Sprintf("%v=%t", d.FKind, d.Fault)
}

// FormatDecisions renders a decision list compactly, eliding neutral
// entries (they are implied by position during replay).
func FormatDecisions(dec []Decision) string {
	var b strings.Builder
	n := 0
	for i, d := range dec {
		if d.Neutral() {
			continue
		}
		if n > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%d:%s", i, d)
		n++
	}
	if n == 0 {
		return "(all neutral)"
	}
	return b.String()
}

// InterestingCount returns the number of non-neutral decisions.
func InterestingCount(dec []Decision) int {
	n := 0
	for _, d := range dec {
		if !d.Neutral() {
			n++
		}
	}
	return n
}

// Policy is consulted by the scheduler; implementations must be
// deterministic functions of their own state.
type Policy interface {
	// PickNext chooses the next goroutine from cands (sorted goroutine
	// indices, never empty). cur is the current goroutine's index if it
	// is among cands, else -1. Returning cur (or any value not in
	// cands) means "stay"; the scheduler normalizes the answer.
	PickNext(cands []int, cur int, p stm.YieldPoint) int
	// Fault reports whether the given fault fires at this point.
	Fault(kind FaultKind) bool
}

// The random walk's probabilities: a preemption at each yield point,
// and a forced failure at each CAS.
const (
	preemptNum, preemptDen = 1, 4
	casNum, casDen         = 1, 32
)

// RandomPolicy is the seeded random-walk policy: at every yield point it
// preempts with probability 1/4, choosing uniformly among the runnable
// goroutines, and it forces each CAS to fail with probability 1/32.
type RandomPolicy struct {
	rng *prng
}

// NewRandomPolicy returns the random-walk policy for a seed.
func NewRandomPolicy(seed uint64) *RandomPolicy {
	return &RandomPolicy{rng: newPRNG(seed)}
}

func (p *RandomPolicy) PickNext(cands []int, cur int, _ stm.YieldPoint) int {
	if cur >= 0 && !p.rng.chance(preemptNum, preemptDen) {
		return cur
	}
	return cands[p.rng.intn(len(cands))]
}

func (p *RandomPolicy) Fault(kind FaultKind) bool {
	return kind == FaultCAS && p.rng.chance(casNum, casDen)
}

// ReplayPolicy replays a recorded decision list positionally: the i-th
// consultation returns the i-th decision if its kind matches, and the
// neutral choice otherwise (including past the end of the list). A
// shrunk list therefore steers the run through the recorded prefix and
// lets it finish undisturbed.
type ReplayPolicy struct {
	dec []Decision
	i   int
}

func NewReplayPolicy(dec []Decision) *ReplayPolicy { return &ReplayPolicy{dec: dec} }

func (p *ReplayPolicy) take(kind DecisionKind) (Decision, bool) {
	if p.i >= len(p.dec) {
		return Decision{}, false
	}
	d := p.dec[p.i]
	p.i++
	if d.Kind != kind {
		return Decision{}, false
	}
	return d, true
}

func (p *ReplayPolicy) PickNext(cands []int, cur int, _ stm.YieldPoint) int {
	d, ok := p.take(DecSwitch)
	if !ok || d.Target < 0 {
		return cur
	}
	for _, c := range cands {
		if c == d.Target {
			return d.Target
		}
	}
	return cur
}

func (p *ReplayPolicy) Fault(kind FaultKind) bool {
	d, ok := p.take(DecFault)
	if !ok || d.FKind != kind {
		// A mismatched kind still consumes the slot: positional replay
		// keeps the remaining prefix roughly aligned after divergence.
		return false
	}
	return d.Fault
}
