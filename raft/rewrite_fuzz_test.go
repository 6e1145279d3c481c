package raft

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzGraphRewrite drives a random script of rewrite transactions —
// splice an identity relay in at the head, splice one out, stage an
// invalid change, commit an empty transaction — against a live
// gen -> collect pipeline. Relays are pure pass-throughs, so whatever
// the interleaving of commits, drains and the run's natural completion,
// the output must be the untouched identity sequence: any loss,
// duplication or reorder the protocol lets slip is a crash here.
func FuzzGraphRewrite(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 2, 3, 1})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{2, 3, 2, 3, 0})
	f.Add([]byte{1, 0, 2, 0, 1, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		const n = 4000
		m := NewMap()
		gen := newGen(n)
		sink := newPacedCollect(500 * time.Microsecond)
		l0 := m.MustLink(gen, sink)

		other := NewMap()
		foreign := other.MustLink(newGen(4), newCollect())

		ex, err := m.ExeAsync(WithDynamicResize(false))
		if err != nil {
			t.Fatal(err)
		}
		rw := ex.Rewriter()

		// benign: the run raced the script — the producer finished before
		// the seal (it can no longer be paused or rewired) or the execution
		// completed.
		benign := func(err error) bool {
			return strings.Contains(err.Error(), "already completed") ||
				strings.Contains(err.Error(), "finished before the seal")
		}

		// chain[0]=gen ... chain[len-1]=sink; links[i] connects chain[i]
		// to chain[i+1].
		chain := []Kernel{gen, sink}
		links := []*Link{l0}
		relays := 0

	script:
		for _, b := range script {
			switch b % 4 {
			case 0: // splice a relay in at the head
				if len(chain) >= 6 {
					continue
				}
				relay := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
					v, err := Pop[int64](k.In("0"))
					if err != nil {
						return Stop
					}
					if err := Push(k.Out("0"), v); err != nil {
						return Stop
					}
					return Proceed
				})
				relay.SetName(fmt.Sprintf("fuzz-relay-%d", relays))
				relays++
				tx := rw.Begin()
				if err := tx.RemoveLink(links[0]); err != nil {
					t.Fatal(err)
				}
				nl1, err1 := tx.Link(gen, relay)
				nl2, err2 := tx.Link(relay, chain[1])
				if err1 != nil || err2 != nil {
					t.Fatalf("staging splice-in: %v / %v", err1, err2)
				}
				if err := tx.Commit(); err != nil {
					if benign(err) {
						break script
					}
					t.Fatalf("splice-in commit: %v", err)
				}
				chain = append([]Kernel{gen, relay}, chain[1:]...)
				links = append([]*Link{nl1, nl2}, links[1:]...)
			case 1: // splice the head relay out
				if len(chain) == 2 {
					continue
				}
				tx := rw.Begin()
				if err := tx.RemoveLink(links[0]); err != nil {
					t.Fatal(err)
				}
				if err := tx.RemoveLink(links[1]); err != nil {
					t.Fatal(err)
				}
				if err := tx.RemoveKernel(chain[1]); err != nil {
					t.Fatal(err)
				}
				nl, err := tx.Link(gen, chain[2])
				if err != nil {
					t.Fatalf("staging splice-out: %v", err)
				}
				if err := tx.Commit(); err != nil {
					if benign(err) {
						break script
					}
					t.Fatalf("splice-out commit: %v", err)
				}
				chain = append([]Kernel{gen}, chain[2:]...)
				links = append([]*Link{nl}, links[2:]...)
			case 2: // invalid transaction: must refuse, must not disturb
				tx := rw.Begin()
				if err := tx.RemoveLink(foreign); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err == nil {
					t.Fatal("foreign-link removal committed")
				}
			case 3: // empty transaction: a committed no-op
				if err := rw.Begin().Commit(); err != nil {
					t.Fatalf("empty commit: %v", err)
				}
			}
		}

		if _, err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
		got := sink.values()
		if len(got) != n {
			t.Fatalf("received %d values, want %d (script %v)", len(got), n, script)
		}
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("index %d: value %d, want %d (script %v)", i, v, i, script)
			}
		}
	})
}

// FuzzGroupRewrite drives a random script of width steps and user rewrites
// against the out-of-order group of a live gen -> double -> collect
// pipeline (WithAutoReplicate(4), starting at width 1 under AutoScale,
// the monitor off so only the script moves the width): scale up, scale
// down, remove the oldest replica in a user transaction, and relink a
// replica through an identity relay. Whatever commits or is refused, the
// sink must receive every doubled value exactly once, in some order.
func FuzzGroupRewrite(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 1})
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2})
	f.Add([]byte{3, 0, 3, 1, 1, 2})
	f.Add([]byte{1, 2, 0, 1, 0, 3, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 16 {
			script = script[:16]
		}
		const n = 4000
		m := NewMap()
		sink := newPacedCollect(500 * time.Microsecond)
		m.MustLink(newGen(n), newWork(), AsOutOfOrder())
		m.MustLink(m.Kernels()[1], sink)
		ex, err := m.ExeAsync(WithAutoReplicate(4), WithAutoScale(true), WithoutMonitor())
		if err != nil {
			t.Fatal(err)
		}
		g := ex.scalers[0]
		reg := ex.reg

		// finished: the run raced the script — the group's split or a
		// replica finished before the seal, or the execution completed.
		finished := func(err error) bool {
			return strings.Contains(err.Error(), "finished before the seal") ||
				strings.Contains(err.Error(), "already completed")
		}
		// refused: the step or rewrite is not possible at this width.
		refused := func(err error) bool {
			for _, s := range []string{"no free slot", "down to one replica",
				"linked straight", "slots linked"} {
				if strings.Contains(err.Error(), s) {
					return true
				}
			}
			return false
		}
		relays := 0

	script:
		for _, b := range script {
			var err error
			switch b % 4 {
			case 0:
				err = g.step(+1)
			case 1:
				err = g.step(-1)
			case 2: // remove the oldest replica that feeds the merge directly
				tx := ex.Rewriter().Begin()
				for _, in := range reg.linksFrom(g.split) {
					r := in.l.Dst
					if outs := reg.linksFrom(r); len(outs) == 1 && outs[0].l.Dst == g.merge {
						tx.RemoveLink(in.l)
						tx.RemoveLink(outs[0].l)
						tx.RemoveKernel(r)
						break
					}
				}
				err = tx.Commit()
			case 3: // relink the newest direct replica through a relay
				if relays == 2 {
					continue
				}
				tx := ex.Rewriter().Begin()
				ins := reg.linksFrom(g.split)
				for i := len(ins) - 1; i >= 0; i-- {
					r := ins[i].l.Dst
					if outs := reg.linksFrom(r); len(outs) == 1 && outs[0].l.Dst == g.merge {
						relay := newRelay(fmt.Sprintf("fuzz-relay-%d", relays))
						relays++
						tx.RemoveLink(outs[0].l)
						if _, err := tx.Link(r, relay); err != nil {
							t.Fatal(err)
						}
						if _, err := tx.Link(relay, g.merge, To(outs[0].l.DstPort.Name())); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				err = tx.Commit()
			}
			switch {
			case err == nil:
			case finished(err):
				break script
			case !refused(err):
				t.Fatalf("op %d: %v (script %v)", b%4, err, script)
			}
			if w := g.Active(); w < 1 || w > g.Max() {
				t.Fatalf("width %d outside [1, %d] (script %v)", w, g.Max(), script)
			}
		}

		if _, err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
		checkDoubledMultiset(t, sink.values(), n)
	})
}
