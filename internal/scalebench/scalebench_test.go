package scalebench

import (
	"fmt"
	"testing"
)

// TestMixes runs every mix at one and two threads. Run panics when a
// mix's own verify finds a lost update (upgrade-duel, contended-counter,
// batch-chain and rmw-hotset all check their committed sums), so
// reaching the assertions at all means no mix lost one; the assertions
// then check the op budget and that the tier a mix is named for fired.
func TestMixes(t *testing.T) {
	const ops = 2000
	for _, m := range Mixes() {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/threads=%d", m.Name, threads), func(t *testing.T) {
				r := Run(m, threads, ops)
				if r.Ops != ops {
					t.Errorf("Ops = %d, want %d", r.Ops, ops)
				}
				if r.Mix != m.Name || r.Threads != threads || r.Elapsed <= 0 || r.TxnsPerSec <= 0 {
					t.Errorf("cell header not filled in: %+v", r)
				}
				switch m.Name {
				case "read-fan":
					if r.InvisReads == 0 && r.BiasGrants == 0 {
						t.Errorf("pure readers never left the visible tier: %+v", r)
					}
				case "batch-chain":
					if r.BatchAcquires < ops || r.BatchWords != 3*r.BatchAcquires {
						t.Errorf("%d batches over %d words, want one 3-word batch per commit (%d) and per counted retry (%d aborts)",
							r.BatchAcquires, r.BatchWords, ops, r.Aborts)
					}
					if r.IntentHints == 0 {
						t.Errorf("the declared-intent read never counted: %+v", r)
					}
				case "upgrade-duel":
					if threads > 1 && r.Contended == 0 {
						t.Errorf("two dueling upgraders never contended: %+v", r)
					}
				}
			})
		}
	}
}
