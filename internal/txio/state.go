package txio

import "repro/internal/stm"

// stateOn returns the state owner keeps on tx's current attempt,
// registering the one create makes on first use. The Tx's resources are
// the only index of per-transaction state, which goes with the attempt.
func stateOn[S interface {
	stm.Resource
	owner() any
}](tx *stm.Tx, owner any, create func() S) S {
	for _, r := range tx.Resources() {
		if s, ok := r.(S); ok && s.owner() == owner {
			return s
		}
	}
	s := create()
	tx.Register(s)
	return s
}
