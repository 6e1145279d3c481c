package raft

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

// pacedCollect gathers int64s from port "in", sleeping briefly every few
// elements so the upstream stays busy (backpressured, hence pausable)
// long enough for a mid-run rewrite to land, without dragging the test
// out to timer-granularity-per-element wall clock.
type pacedCollect struct {
	KernelBase
	mu    chan struct{} // 1-slot mutex usable from values() too
	got   []int64
	pause time.Duration
	every int
}

func newPacedCollect(pause time.Duration) *pacedCollect {
	k := &pacedCollect{mu: make(chan struct{}, 1), pause: pause, every: 64}
	AddInput[int64](k, "in")
	return k
}

func (c *pacedCollect) Run() Status {
	v, err := Pop[int64](c.In("in"))
	if err != nil {
		return Stop
	}
	c.mu <- struct{}{}
	n := len(c.got) + 1
	c.got = append(c.got, v)
	<-c.mu
	if c.pause > 0 && c.every > 0 && n%c.every == 0 {
		time.Sleep(c.pause)
	}
	return Proceed
}

func (c *pacedCollect) count() int {
	c.mu <- struct{}{}
	n := len(c.got)
	<-c.mu
	return n
}

func (c *pacedCollect) values() []int64 {
	c.mu <- struct{}{}
	defer func() { <-c.mu }()
	return append([]int64(nil), c.got...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkSegments verifies got is a concatenation of contiguous segments
// where segment f maps index i to fns[f](i), in order, and returns the
// cut points. Used to prove a splice preserved FIFO order: everything
// before the epoch flows through the old structure, everything after
// through the new one, with no loss, duplication or interleaving.
func checkSegments(t *testing.T, got []int64, fns ...func(int64) int64) []int {
	t.Helper()
	var cuts []int
	f := 0
	for i, v := range got {
		for f < len(fns) && v != fns[f](int64(i)) {
			f++
			cuts = append(cuts, i)
		}
		if f == len(fns) {
			t.Fatalf("index %d: value %d fits no segment (cuts so far %v)", i, v, cuts)
		}
	}
	return cuts
}

// TestRewriteSpliceAndRemoveMidRun drives gen -> collect, splices a
// doubling kernel between them mid-run, later splices it back out, and
// requires the output to be exactly three clean segments: identity,
// doubled, identity — every element delivered exactly once, in order,
// across two graph epochs.
func TestRewriteSpliceAndRemoveMidRun(t *testing.T) {
	const n = 30_000
	m := NewMap()
	gen := newGen(n)
	sink := newPacedCollect(time.Millisecond)
	l0 := m.MustLink(gen, sink)

	ex, err := m.ExeAsync(WithDynamicResize(false))
	if err != nil {
		t.Fatal(err)
	}
	rw := ex.Rewriter()

	waitFor(t, "pre-splice traffic", func() bool { return sink.count() >= 500 })
	// Both endpoints move elements one at a time (PushSig / Pop) through
	// In/Out lookups on every invocation, so by now every accessor has
	// resolved the original stream many times over. Ports are written only
	// by Commit and, for a consumer, before Commit returns, so reading
	// their binding around a Commit is ordered.
	q0 := gen.Out("out").Queue()
	if sink.In("in").Queue() != q0 {
		t.Fatal("endpoints of one link are bound to different queues")
	}

	work := newWork()
	work.SetName("spliced-work")
	tx := rw.Begin()
	if err := tx.RemoveLink(l0); err != nil {
		t.Fatal(err)
	}
	l1, err := tx.Link(gen, work)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := tx.Link(work, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("splice-in commit: %v", err)
	}
	if got := rw.Epoch(); got != 1 {
		t.Fatalf("epoch after first commit = %d, want 1", got)
	}
	// The splice rebound a producer port (gen.out) and a consumer port
	// (sink.in) of kernels that were mid-stream on the scalar accessors;
	// segment exactness below proves they followed the new bindings.
	q1, q2 := gen.Out("out").Queue(), sink.In("in").Queue()
	if q1 == q0 || q2 == q0 || q1 == q2 {
		t.Fatalf("after the splice gen.out and sink.in must be bound to two new queues (old %p, now %p and %p)", q0, q1, q2)
	}

	mark := sink.count()
	waitFor(t, "doubled traffic", func() bool { return sink.count() >= mark+2000 })

	tx = rw.Begin()
	for _, l := range []*Link{l1, l2} {
		if err := tx.RemoveLink(l); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.RemoveKernel(work); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(gen, sink); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("splice-out commit: %v", err)
	}
	if got := rw.Epoch(); got != 2 {
		t.Fatalf("epoch after second commit = %d, want 2", got)
	}

	rep, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != n {
		t.Fatalf("received %d values, want %d", len(got), n)
	}
	id := func(i int64) int64 { return i }
	dbl := func(i int64) int64 { return 2 * i }
	cuts := checkSegments(t, got, id, dbl, id)
	if len(cuts) != 2 || cuts[0] == 0 || cuts[1] <= cuts[0] {
		t.Fatalf("segment cuts = %v, want two cuts past the origin", cuts)
	}

	// The report must show the spliced kernel's lifecycle: it joined and
	// left mid-run, while the static kernels carry zero stamps.
	var sawWork bool
	for _, kr := range rep.Kernels {
		if strings.Contains(kr.Name, "spliced-work") {
			sawWork = true
			if kr.JoinedAt <= 0 || kr.LeftAt <= kr.JoinedAt {
				t.Fatalf("spliced kernel stamps: joined %v left %v", kr.JoinedAt, kr.LeftAt)
			}
		} else if kr.JoinedAt != 0 || kr.LeftAt != 0 {
			t.Fatalf("static kernel %q has lifecycle stamps %v/%v", kr.Name, kr.JoinedAt, kr.LeftAt)
		}
	}
	if !sawWork {
		t.Fatal("spliced kernel missing from report")
	}

	// The rendered report shows the lifecycle columns (static graphs keep
	// the stamp-free layout), and the departed kernel's row carries both
	// offsets rather than reading like a live zero-stamped row.
	s := rep.String()
	if !strings.Contains(s, "joined") || !strings.Contains(s, "left") {
		t.Fatal("rendered report lacks lifecycle columns after a rewrite")
	}
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(strings.TrimLeft(line, " "), "spliced-work ") && !strings.Contains(line, "+") {
			t.Fatalf("departed kernel row lacks lifecycle stamps: %q", line)
		}
	}
}

// TestRewriteUnderWorkStealing repeats the mid-run splice on the sharded
// work-stealing scheduler: the spliced kernel must be spawned into the
// running shard set and the splice must stay exactly-once.
func TestRewriteUnderWorkStealing(t *testing.T) {
	const n = 20_000
	m := NewMap()
	gen := newGen(n)
	sink := newPacedCollect(time.Millisecond)
	l0 := m.MustLink(gen, sink)

	ex, err := m.ExeAsync(WithWorkStealing(4), WithDynamicResize(false))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-splice traffic", func() bool { return sink.count() >= 500 })

	work := newWork()
	tx := ex.Rewriter().Begin()
	if err := tx.RemoveLink(l0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(gen, work); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit under work stealing: %v", err)
	}

	rep, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sched == nil {
		t.Fatal("work-stealing run produced no scheduler report")
	}
	got := sink.values()
	if len(got) != n {
		t.Fatalf("received %d values, want %d", len(got), n)
	}
	id := func(i int64) int64 { return i }
	dbl := func(i int64) int64 { return 2 * i }
	cuts := checkSegments(t, got, id, dbl)
	if len(cuts) != 1 || cuts[0] == 0 {
		t.Fatalf("segment cuts = %v, want one cut past the origin", cuts)
	}
}

// bombDoubler doubles elements and panics once, before popping, after a
// set number of successful invocations — the processed count survives via
// checkpoints, the armed flag deliberately does not, so a supervised
// restart resumes exactly where the panic struck with nothing lost or
// repeated.
type bombDoubler struct {
	KernelBase
	processed int64
	bombAt    int64
	armed     bool
}

func newBombDoubler(bombAt int64) *bombDoubler {
	k := &bombDoubler{bombAt: bombAt, armed: true}
	k.SetName("bomb")
	AddInput[int64](k, "in")
	AddOutput[int64](k, "out")
	return k
}

func (d *bombDoubler) Run() Status {
	if d.armed && d.processed == d.bombAt {
		d.armed = false
		panic("injected fault in spliced kernel")
	}
	v, err := Pop[int64](d.In("in"))
	if err != nil {
		return Stop
	}
	if err := Push(d.Out("out"), 2*v); err != nil {
		return Stop
	}
	d.processed++
	return Proceed
}

func (d *bombDoubler) Snapshot() ([]byte, error) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(d.processed))
	return b, nil
}

func (d *bombDoubler) Restore(snap []byte) error {
	if len(snap) != 8 {
		return errors.New("bad snapshot")
	}
	d.processed = int64(binary.LittleEndian.Uint64(snap))
	return nil
}

// TestRewriteSplicedKernelSupervised splices a checkpointable kernel with
// a live restart budget into a supervised run and lets it blow up: the
// supervisor must restart the dynamically spawned kernel in place
// (restoring its checkpoint) and the end-to-end stream must stay
// exactly-once across both the splice and the recovery.
func TestRewriteSplicedKernelSupervised(t *testing.T) {
	const n = 15_000
	m := NewMap()
	gen := newGen(n)
	sink := newPacedCollect(time.Millisecond)
	l0 := m.MustLink(gen, sink)

	ex, err := m.ExeAsync(
		WithSupervision(SupervisionPolicy{InitialBackoff: time.Microsecond}),
		WithCheckpointStore(NewMemCheckpointStore()),
		WithDynamicResize(false),
	)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-splice traffic", func() bool { return sink.count() >= 300 })

	bomb := newBombDoubler(50)
	tx := ex.Rewriter().Begin()
	if err := tx.RemoveLink(l0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(gen, bomb); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(bomb, sink); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	rep, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != n {
		t.Fatalf("received %d values, want %d", len(got), n)
	}
	id := func(i int64) int64 { return i }
	dbl := func(i int64) int64 { return 2 * i }
	checkSegments(t, got, id, dbl)

	var restarts uint64
	for _, kr := range rep.Kernels {
		if strings.Contains(kr.Name, "bomb") {
			restarts = kr.Restarts
		}
	}
	if restarts == 0 {
		t.Fatal("spliced kernel shows no supervised restarts")
	}
	if len(rep.Recoveries) == 0 {
		t.Fatal("report carries no recovery events")
	}
}

// TestRewriteValidation exercises the transaction validator's refusals
// against a live run — every rejected transaction must leave the running
// graph untouched.
func TestRewriteValidation(t *testing.T) {
	const n = 5_000
	m := NewMap()
	gen := newGen(n)
	sink := newPacedCollect(time.Millisecond)
	l0 := m.MustLink(gen, sink)

	other := NewMap()
	foreign := other.MustLink(newGen(10), newCollect())

	ex, err := m.ExeAsync()
	if err != nil {
		t.Fatal(err)
	}
	rw := ex.Rewriter()
	waitFor(t, "traffic", func() bool { return sink.count() >= 100 })

	// Busy port: gen's only output is bound and no removal frees it.
	tx := rw.Begin()
	if _, err := tx.Link(gen, newCollect()); err == nil {
		if err := tx.Commit(); err == nil {
			t.Fatal("linking a busy port committed")
		}
	}

	// Kernel removal without removing its links.
	tx = rw.Begin()
	if err := tx.RemoveKernel(gen); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("removing a kernel with live links committed")
	}

	// Foreign link: belongs to a map that never executed.
	tx = rw.Begin()
	if err := tx.RemoveLink(foreign); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("removing a foreign link committed")
	}

	// Dangling addition: a new kernel whose input is never linked.
	tx = rw.Begin()
	if err := tx.RemoveLink(l0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(gen, newWork()); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("transaction with an unbound surviving port committed")
	}

	// Double commit.
	tx = rw.Begin()
	if err := tx.Commit(); err != nil { // empty transaction is a no-op
		t.Fatalf("empty commit: %v", err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("second commit of one transaction succeeded")
	}

	if got := rw.Epoch(); got != 0 {
		t.Fatalf("failed transactions advanced the epoch to %d", got)
	}

	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != n {
		t.Fatalf("received %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("index %d: value %d after rejected transactions", i, v)
		}
	}

	// The execution is complete: new transactions must refuse to commit.
	tx = rw.Begin()
	a, b := newGen(5), newCollect()
	if _, err := tx.Link(a, b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after execution completion succeeded")
	}
}

// TestRewriteRejectsRigidKernels: members of an auto-replicated group are
// load-balanced by the runtime's own split/merge adapters; splicing user
// structure onto them would break the ordered-merge invariants, so the
// validator refuses.
func TestRewriteRejectsRigidKernels(t *testing.T) {
	const n = 20_000
	m := NewMap()
	gen := newGen(n)
	work := newWork()
	sink := newPacedCollect(time.Millisecond)
	m.MustLink(gen, work)
	m.MustLink(work, sink)

	ex, err := m.ExeAsync(WithAutoReplicate(3))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "traffic", func() bool { return sink.count() >= 100 })

	tx := ex.Rewriter().Begin()
	_, linkErr := tx.Link(work, newCollect())
	if linkErr == nil {
		if err := tx.Commit(); err == nil {
			t.Fatal("linking a replicated-group member committed")
		}
	}

	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := sink.count(); got != n {
		t.Fatalf("received %d values, want %d", got, n)
	}
}
