// Transfer: deadlock resolution and transactional output.
//
// Two threads transfer money between the same two accounts in opposite
// lock orders — the classic deadlock. Under SBD nothing special is
// needed: the STM's dreadlocks detector aborts the youngest section of
// the cycle, rolls it back (including its buffered console output, which
// therefore never appears twice), and replays it. The program always
// terminates with a conserved total.
//
// Run: go run ./examples/transfer
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/txio"
)

// -debug is the runtime's §6 debug mode, served by the flight recorder:
// at exit it dumps the recorded protocol history — blocked threads,
// lock grants and each deadlock resolution with its cycle and victim —
// which is how an SBD programmer locates the contention worth
// splitting around.
var debug = flag.Bool("debug", false, "dump the flight recorder's blocked threads, grants and deadlock resolutions to stderr at exit")

var accountClass = stm.NewClass("Account",
	stm.FieldSpec{Name: "owner", Kind: stm.KindStr, Final: true},
	stm.FieldSpec{Name: "balance", Kind: stm.KindWord},
)

var (
	ownerF   = accountClass.Field("owner")
	balanceF = accountClass.Field("balance")
)

func main() {
	flag.Parse()
	rt := core.New()
	console := txio.NewWriter(os.Stdout)

	newAccount := func(owner string, balance int64) *stm.Object {
		tx := rt.STM().Begin()
		defer tx.Commit()
		a := tx.New(accountClass)
		tx.WriteStr(a, ownerF, owner)
		tx.WriteInt(a, balanceF, balance)
		return a
	}
	alice := newAccount("alice", 1000)
	bob := newAccount("bob", 1000)

	const rounds = 50
	mover := func(from, to *stm.Object, amount int64) func(*core.Thread) {
		return func(th *core.Thread) {
			for i := 0; i < rounds; i++ {
				th.AtomicSplit(func(tx *stm.Tx) {
					// Opposite acquisition orders in the two threads: the
					// deadlock is resolved by the runtime, not the
					// programmer.
					fb := tx.ReadInt(from, balanceF)
					tb := tx.ReadInt(to, balanceF)
					tx.WriteInt(from, balanceF, fb-amount)
					tx.WriteInt(to, balanceF, tb+amount)
					console.Printf(tx, "%s -> %s: %d\n",
						tx.ReadStr(from, ownerF), tx.ReadStr(to, ownerF), amount)
				})
			}
		}
	}

	rt.Main(func(th *core.Thread) {
		t1 := th.Go("a->b", mover(alice, bob, 3))
		t2 := th.Go("b->a", mover(bob, alice, 2))
		th.Join(t1)
		th.Join(t2)

		th.Atomic(func(tx *stm.Tx) {
			a := tx.ReadInt(alice, balanceF)
			b := tx.ReadInt(bob, balanceF)
			console.Printf(tx, "final: alice=%d bob=%d total=%d\n", a, b, a+b)
		})
	})

	s := rt.Stats().Snapshot()
	fmt.Printf("sections committed=%d, deadlocks resolved=%d, aborts replayed=%d\n",
		s.Commits, s.Deadlocks, s.Aborts)
	if *debug {
		rt.STM().Recorder().Dump(os.Stderr) //nolint:errcheck
	}
}
