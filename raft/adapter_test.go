package raft

import (
	"strings"
	"testing"
	"time"
)

// TestAdaptersHoldNoWorker runs each kind of replicated group on a single
// work-stealing worker over Cap(2) links, where every stream is full or
// empty most of the time. The adapters move what fits and return Stall
// with the end they could not serve, so the one worker is never held inside
// a split or a merge: each group delivers all 200,000 elements before the
// deadline, and the adapters' own ends of their streams (a split's or
// merge's writes, a split's or merge's reads) record no block time.
func TestAdaptersHoldNoWorker(t *testing.T) {
	const n = 200_000
	cases := []struct {
		name    string
		link    LinkOption
		opts    []Option
		ordered bool
	}{
		{"out-of-order/round-robin", AsOutOfOrder(), nil, false},
		{"out-of-order/least-utilized", AsOutOfOrder(), []Option{WithSplitPolicy(LeastUtilized)}, false},
		{"reorderable", AsReorderable(), nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMap()
			work, sink := newWork(), newCollect()
			m.MustLink(newGen(n), work, c.link, Cap(2))
			m.MustLink(work, sink, Cap(2))
			ex, err := m.ExeAsync(append(c.opts, WithWorkStealing(1), WithAutoReplicate(3))...)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-ex.Done():
			case <-time.After(60 * time.Second):
				t.Fatalf("%d of %d elements delivered before the deadline", len(sink.values()), n)
			}
			rep, err := ex.Wait()
			if err != nil {
				t.Fatal(err)
			}
			got := sink.values()
			if len(got) != n {
				t.Fatalf("received %d elements, want %d", len(got), n)
			}
			var sum int64
			for i, v := range got {
				if c.ordered && v != int64(2*i) {
					t.Fatalf("out[%d] = %d, want %d: order not restored", i, v, 2*i)
				}
				sum += v
			}
			if want := int64(n) * (n - 1); sum != want {
				t.Fatalf("sum = %d, want %d", sum, want)
			}
			adapter := func(end string) bool {
				return strings.Contains(end, "split(") || strings.Contains(end, "merge(")
			}
			for _, l := range rep.Links {
				src, dst, _ := strings.Cut(l.Name, "->")
				if adapter(src) && l.WriteBlockNs != 0 || adapter(dst) && l.ReadBlockNs != 0 {
					t.Errorf("link %s: adapter blocked (write %d ns, read %d ns)", l.Name, l.WriteBlockNs, l.ReadBlockNs)
				}
			}
		})
	}
}

// slowLast is a 1:1 relay that takes 20 ms over the last element of its
// stream, so its replica finishes well after the others.
type slowLast struct {
	KernelBase
	last int64
}

func newSlowLast(last int64) *slowLast {
	k := &slowLast{last: last}
	AddInput[int64](k, "in")
	AddOutput[int64](k, "out")
	return k
}

func (k *slowLast) Run() Status {
	v, err := Pop[int64](k.In("in"))
	if err != nil {
		return Stop
	}
	if v == k.last {
		time.Sleep(20 * time.Millisecond)
	}
	if err := Push(k.Out("out"), v); err != nil {
		return Stop
	}
	return Proceed
}

func (k *slowLast) Clone() Kernel { return newSlowLast(k.last) }

// TestMergeWaitsOnOpenInputs: once a replica's stream has closed and
// drained, a merge waits on the inputs still open instead of counting the
// finished one as ready, under both schedulers. A merge that took a closed
// input for a ready one would step without pause for as long as the slow
// replica holds the last element.
func TestMergeWaitsOnOpenInputs(t *testing.T) {
	const n = 2000
	for _, opts := range [][]Option{nil, {WithWorkStealing(2)}} {
		m := NewMap()
		work, sink := newSlowLast(n-1), newCollect()
		m.MustLink(newGen(n), work, AsOutOfOrder())
		m.MustLink(work, sink)
		rep, err := m.Exe(append(opts, WithAutoReplicate(2))...)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(sink.values()); got != n {
			t.Fatalf("received %d, want %d", got, n)
		}
		for _, k := range rep.Kernels {
			if strings.HasPrefix(k.Name, "merge(") && k.Runs > 3*n {
				t.Errorf("%s: merge ran %d times for %d elements", rep.Scheduler, k.Runs, n)
			}
		}
	}
}

// idleGen pushes ten elements and then waits, without returning, until
// the test lets it stop.
type idleGen struct {
	KernelBase
	next int64
	hold chan struct{}
}

func (g *idleGen) Run() Status {
	if g.next == 10 {
		<-g.hold
		return Stop
	}
	if err := Push(g.Out("out"), g.next); err != nil {
		return Stop
	}
	g.next++
	return Proceed
}

// TestIdleMergeSplicedAround: under the goroutine scheduler a merge whose
// inputs are all empty sleeps until one publishes, so a rewrite that seals
// its output must wake it to reach its gate; the commit then succeeds in
// well under the seal timeout instead of reporting an idle kernel.
func TestIdleMergeSplicedAround(t *testing.T) {
	gen := &idleGen{hold: make(chan struct{})}
	AddOutput[int64](gen, "out")
	m := NewMap()
	sink := newCollect()
	m.MustLink(gen, newWork(), AsOutOfOrder())
	m.MustLink(m.Kernels()[1], sink)
	ex, err := m.ExeAsync(WithAutoReplicate(2), WithoutMonitor())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gen.hold)
		_, _ = ex.Wait() // the commit, not the run's end, is what is tested
	}()
	waitFor(t, "ten elements", func() bool { return len(sink.values()) == 10 })
	time.Sleep(20 * time.Millisecond) // the merge goes to sleep on its inputs
	g := ex.scalers[0]
	out := ex.reg.linksFrom(g.merge)[0].l
	tx := ex.Rewriter().Begin()
	if err := tx.RemoveLink(out); err != nil {
		t.Fatal(err)
	}
	relay := newRelay("relay")
	if _, err := tx.Link(g.merge, relay); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(relay, sink); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("splicing after an idle merge: %v", err)
	}
}
