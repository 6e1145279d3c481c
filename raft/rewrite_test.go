package raft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/trace"
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
	q0 := gen.Out("out").q
	if sink.In("in").q != q0 {
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
	q1, q2 := gen.Out("out").q, sink.In("in").q
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
	if err := tx.Commit(); err == nil || !strings.Contains(err.Error(), "is not linked") {
		t.Fatalf("transaction with an unbound surviving port: %v, want a port that is not linked", err)
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

// newRelay returns a named identity kernel on int64 ports "0".
func newRelay(name string) *LambdaKernel {
	k := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		if err := Push(k.Out("0"), v); err != nil {
			return Stop
		}
		return Proceed
	})
	k.SetName(name)
	return k
}

// checkDoubledMultiset fails unless got holds 2i exactly once for every i
// in [0, n), in any order.
func checkDoubledMultiset(t *testing.T, got []int64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("received %d values, want %d", len(got), n)
	}
	seen := make([]bool, n)
	for _, v := range got {
		if v%2 != 0 || v < 0 || v/2 >= int64(n) || seen[v/2] {
			t.Fatalf("value %d is foreign or repeated", v)
		}
		seen[v/2] = true
	}
}

// TestRewriteOnReplicatedGroups: the replicas of an out-of-order group are
// ordinary live kernels — a rewrite that relinks one through a relay
// commits, and the sink still receives every element exactly once, in
// some order — while an ordered group keeps its positions: removing an
// ordered-split output is refused, since the order it restores depends on
// which replica holds which position.
func TestRewriteOnReplicatedGroups(t *testing.T) {
	t.Run("out-of-order replica relinked", func(t *testing.T) {
		const n = 20_000
		m := NewMap()
		sink := newPacedCollect(time.Millisecond)
		m.MustLink(newGen(n), newWork(), AsOutOfOrder())
		m.MustLink(m.Kernels()[1], sink)
		ex, err := m.ExeAsync(WithAutoReplicate(3), WithoutMonitor())
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "traffic", func() bool { return sink.count() >= 300 })

		// replica -> merge becomes replica -> relay -> merge.
		g := ex.scalers[0]
		replica := ex.reg.linksFrom(g.split)[1].l.Dst
		out := ex.reg.linksFrom(replica)[0].l
		tx := ex.Rewriter().Begin()
		if err := tx.RemoveLink(out); err != nil {
			t.Fatal(err)
		}
		relay := newRelay("relay")
		if _, err := tx.Link(replica, relay); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Link(relay, g.merge, To(out.DstPort.Name())); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("relinking a replica: %v", err)
		}
		rep, err := ex.Wait()
		if err != nil {
			t.Fatal(err)
		}
		checkDoubledMultiset(t, sink.values(), n)
		for _, k := range rep.Kernels {
			if k.Name == "relay" && k.Runs == 0 {
				t.Fatal("the relay carried nothing")
			}
		}
	})

	t.Run("ordered position refused", func(t *testing.T) {
		const n = 20_000
		m := NewMap()
		sink := newPacedCollect(time.Millisecond)
		m.MustLink(newGen(n), newWork(), AsReorderable())
		m.MustLink(m.Kernels()[1], sink)
		ex, err := m.ExeAsync(WithAutoReplicate(3))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "traffic", func() bool { return sink.count() >= 300 })
		var split Kernel
		kernels, _ := ex.reg.graph()
		for _, k := range kernels {
			if _, ok := k.(*orderedSplit); ok {
				split = k
			}
		}
		if split == nil {
			t.Fatal("no ordered split was built")
		}
		tx := ex.Rewriter().Begin()
		if err := tx.RemoveLink(ex.reg.linksFrom(split)[0].l); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err == nil || !strings.Contains(err.Error(), "ordered") {
			t.Fatalf("removing an ordered-split output: %v", err)
		}
		if _, err := ex.Wait(); err != nil {
			t.Fatal(err)
		}
		got := sink.values()
		if len(got) != n {
			t.Fatalf("received %d values, want %d", len(got), n)
		}
		for i, v := range got {
			if v != 2*int64(i) {
				t.Fatalf("index %d: value %d, want %d", i, v, 2*i)
			}
		}
	})
}

// TestRewriteConvertedLink: a rewrite links ports of different numeric
// types with AllowConvert as Map.Link does — the cast kernel joins with the
// link, and the configured capacity goes to the stream of the narrower
// type — and the sink receives every value exactly once, in order.
func TestRewriteConvertedLink(t *testing.T) {
	const n = 30_000
	m := NewMap()
	gen := newGen(n)
	sink := newPacedCollect(time.Millisecond)
	l0 := m.MustLink(gen, sink)
	ex, err := m.ExeAsync(WithDynamicResize(false))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-splice traffic", func() bool { return sink.count() >= 500 })

	// gen -> sink becomes gen -> narrow (int32 out) -> cast -> sink (int64 in).
	narrow := NewLambdaIO[int64, int32](1, 1, func(k *LambdaKernel) Status {
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		if err := Push(k.Out("0"), int32(v)); err != nil {
			return Stop
		}
		return Proceed
	})
	narrow.SetName("narrow")
	tx := ex.Rewriter().Begin()
	if err := tx.RemoveLink(l0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(gen, narrow); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(narrow, sink, Cap(32)); err == nil {
		t.Fatal("an int32 -> int64 link without AllowConvert was staged")
	}
	if _, err := tx.Link(narrow, sink, AllowConvert(), Cap(32)); err != nil {
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
	var sum int64
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("index %d: value %d", i, v)
		}
		sum += v
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum %d, want %d", sum, want)
	}
	caps := map[string]int{}
	for _, l := range rep.Links {
		caps[l.Name] = l.FinalCap
	}
	if caps["narrow.0->convert.in"] != 32 {
		t.Fatalf("the narrow side of the cast does not carry the configured capacity: %v", caps)
	}
}

// TestRewriteSplicedLinkInMetricsAndLiveStats splices a relay into a running
// graph: its kernel and link must appear in the next /metrics scrape and
// LiveStats snapshot, because both read the registry rather than the
// structure the run started with.
func TestRewriteSplicedLinkInMetricsAndLiveStats(t *testing.T) {
	const n = 20_000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last LiveStats
	m := NewMap()
	gen := newGen(n)
	sink := newPacedCollect(time.Millisecond)
	l0 := m.MustLink(gen, sink)
	ex, err := m.ExeAsync(WithDynamicResize(false), WithMetricsListener(ln),
		WithObserver(time.Millisecond, func(ls LiveStats) {
			mu.Lock()
			last = ls
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-splice traffic", func() bool { return sink.count() >= 300 })

	relay := newWork()
	relay.SetName("relay")
	tx := ex.Rewriter().Begin()
	if err := tx.RemoveLink(l0); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(gen, relay); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Link(relay, sink); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	body, err := pollMetricsOnce(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`raft_link_pushes_total{link="relay.out->`,
		`raft_kernel_runs_total{kernel="relay"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape after the splice lacks %q:\n%.3000s", want, body)
		}
	}
	waitFor(t, "a LiveStats snapshot holding the spliced relay", func() bool {
		mu.Lock()
		defer mu.Unlock()
		var link, kernel bool
		for _, l := range last.Links {
			link = link || strings.HasPrefix(l.Name, "relay.out->")
		}
		for _, k := range last.Kernels {
			kernel = kernel || k.Name == "relay"
		}
		return link && kernel
	})
	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := sink.count(); got != n {
		t.Fatalf("received %d values, want %d", got, n)
	}
}

// TestRegistryLiveListsEachNameOnce: the exporters' view of the registry
// skips departed entries, and while a commit that re-links the same ports
// is in flight (the sealed link not yet retired) lists only the newer of
// the two same-named links.
func TestRegistryLiveListsEachNameOnce(t *testing.T) {
	reg := &registry{}
	for i, e := range []struct {
		name    string
		removed bool
	}{{"a->b", true}, {"a->b", false}, {"b->c", false}, {"a->b", false}} {
		reg.links = append(reg.links, &linkEntry{li: &core.LinkInfo{ID: i, Name: e.name}, removed: e.removed})
	}
	for i, left := range []bool{true, false, false} {
		reg.actors = append(reg.actors, &actorEntry{a: &core.Actor{ID: i}, left: left})
	}
	links, actors := reg.live()
	var ids []int
	for _, le := range links {
		ids = append(ids, le.li.ID)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("live links %v, want [2 3]", ids)
	}
	if len(actors) != 2 || actors[0].a.ID != 1 || actors[1].a.ID != 2 {
		t.Fatalf("live actors %d, want IDs 1 and 2", len(actors))
	}
}

// TestExeIsEpochZero: Exe commits the whole map as the epoch-0 rewrite
// transaction and leaves no trace of being one. Under each scheduler, with
// latency markers and tracing on, the registry holds every kernel of the
// map in order, then the replicated kernel's group in place of its two
// links, all with zero join stamps; the epoch stays 0 and the trace bus
// carries no GraphAdd or EpochSeal. Validate and Exe refuse an unbound
// port and an empty map with the same error.
func TestExeIsEpochZero(t *testing.T) {
	for _, sc := range []struct {
		name string
		opts []Option
	}{
		{"goroutine", nil},
		{"worksteal", []Option{WithWorkStealing(2)}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			const n = 2000
			// The source stalls until hold closes, so the rewrites below meet
			// a running execution whatever the scheduling.
			hold := make(chan struct{})
			var next int64
			gen := NewLambdaIO[int64, int64](0, 1, func(k *LambdaKernel) Status {
				select {
				case <-hold:
				default:
					return Stall
				}
				if next == n {
					return Stop
				}
				if err := Push(k.Out("0"), next); err != nil {
					return Stop
				}
				next++
				return Proceed
			})
			gen.SetName("gen")
			work := newWork()
			work.SetName("work")
			sink := newCollect()
			m := NewMap()
			m.MustLink(gen, work, AsOutOfOrder())
			m.MustLink(work, sink)
			ex, err := m.ExeAsync(append(sc.opts, WithAutoReplicate(2), WithTrace(1<<14), WithLatencyMarkers(1))...)
			if err != nil {
				t.Fatal(err)
			}

			// gen -> work -> sink, with work built as its group of two.
			wantKernels := []string{"gen", "work", "collectKernel#2", "split(work)", "merge(work)", "work[1]"}
			wantLinks := []string{
				"gen.0->split(work).in",
				"split(work).0->work.in", "work.out->merge(work).0",
				"split(work).1->work[1].in", "work[1].out->merge(work).1",
				"merge(work).out->collectKernel#2.in",
			}
			reg := ex.reg
			reg.mu.Lock()
			if len(reg.actors) != len(wantKernels) || len(reg.links) != len(wantLinks) {
				t.Errorf("registry holds %d kernels and %d links, want %d and %d",
					len(reg.actors), len(reg.links), len(wantKernels), len(wantLinks))
			}
			for i, ae := range reg.actors {
				if i < len(m.kernels) && ae.k != m.kernels[i] || i < len(wantKernels) && ae.a.Name != wantKernels[i] ||
					ae.a.ID != i || ae.joinedNs != 0 || ae.left {
					t.Errorf("kernel entry %d (%s): id %d joined %d left %v", i, ae.a.Name, ae.a.ID, ae.joinedNs, ae.left)
				}
			}
			for i, le := range reg.links {
				if i < len(wantLinks) && le.li.Name != wantLinks[i] || le.li.ID != i || le.joinedNs != 0 || le.removed {
					t.Errorf("link entry %d (%s): id %d joined %d removed %v", i, le.li.Name, le.li.ID, le.joinedNs, le.removed)
				}
				if le.li.SrcActor != int(le.l.Src.kernelBase().actor) || le.li.DstActor != int(le.l.Dst.kernelBase().actor) {
					t.Errorf("link %s: actors %d -> %d", le.li.Name, le.li.SrcActor, le.li.DstActor)
				}
			}
			reg.mu.Unlock()
			if len(m.kernels) != 3 || len(m.links) != 2 {
				t.Errorf("Exe rewired the map: %d kernels, %d links", len(m.kernels), len(m.links))
			}
			if got := ex.Rewriter().Epoch(); got != 0 {
				t.Errorf("Epoch() = %d after Exe, want 0", got)
			}

			close(hold)
			rep, err := ex.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := len(sink.values()); got != n {
				t.Fatalf("sink received %d values, want %d", got, n)
			}
			events := rep.Trace.Events()
			if len(events) == 0 {
				t.Fatal("trace recorded nothing")
			}
			for _, e := range events {
				if e.Kind == trace.GraphAdd || e.Kind == trace.EpochSeal {
					t.Fatalf("static run emitted %v (%s)", e.Kind, e.Label)
				}
			}
			if rep.Latency == nil || rep.Latency.Retired == 0 {
				t.Fatalf("no latency marker retired: %+v", rep.Latency)
			}
			for _, kr := range rep.Kernels {
				if kr.JoinedAt != 0 || kr.LeftAt != 0 {
					t.Fatalf("kernel %s has lifecycle stamps %v/%v", kr.Name, kr.JoinedAt, kr.LeftAt)
				}
			}
			if strings.Contains(rep.String(), "joined") {
				t.Fatal("report of a static run shows lifecycle columns")
			}
		})
	}

	t.Run("same refusals", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			mk   func() *Map
			want string
		}{
			{"unbound port", func() *Map {
				m := NewMap()
				m.MustLink(newGen(1), newWork())
				return m
			}, "is not linked"},
			{"empty map", NewMap, "no kernels linked"},
		} {
			verr := tc.mk().Validate()
			_, eerr := tc.mk().Exe()
			if verr == nil || eerr == nil || verr.Error() != eerr.Error() || !strings.Contains(verr.Error(), tc.want) {
				t.Errorf("%s: Validate() = %v, Exe() = %v, want one error containing %q", tc.name, verr, eerr, tc.want)
			}
		}
	})
}

// spliceWork runs gen -> sink (paced, so the run outlasts the rewrite by
// about half a second), splices a kernel named spliced-work between them
// once traffic flows, and waits until a thousand elements have crossed
// the new structure. It returns the running execution, the new kernel and
// the two new links.
func spliceWork(t *testing.T, opts ...Option) (*Execution, *workKernel, *pacedCollect, [2]*Link) {
	t.Helper()
	const n = 30_000
	m := NewMap()
	gen := newGen(n)
	sink := newPacedCollect(time.Millisecond)
	l0 := m.MustLink(gen, sink)
	ex, err := m.ExeAsync(append(opts, WithDynamicResize(false))...)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-splice traffic", func() bool { return sink.count() >= 500 })
	work := newWork()
	work.SetName("spliced-work")
	tx := ex.Rewriter().Begin()
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
		t.Fatal(err)
	}
	at := sink.count()
	waitFor(t, "spliced traffic", func() bool { return sink.count() >= at+1000 })
	return ex, work, sink, [2]*Link{l1, l2}
}

// TestRewriteKernelNamedInFlightDump: the flight recorder names every
// trace track from the registry when it dumps, so a kernel a rewrite
// spliced in appears by name, not as actor-N.
func TestRewriteKernelNamedInFlightDump(t *testing.T) {
	base := filepath.Join(t.TempDir(), "splice")
	ex, work, _, _ := spliceWork(t, WithFlightRecorder(base), WithTraceStride(1))
	if _, ok := ex.cfg.flight.Trigger("test dump after a splice"); !ok {
		t.Fatal("no dump written")
	}
	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	pm, err := os.ReadFile(filepath.Join(base+".flightdump", "postmortem.txt"))
	if err != nil {
		t.Fatal(err)
	}
	id := int(work.kernelBase().actor)
	if strings.Contains(string(pm), fmt.Sprintf("actor-%d", id)) {
		t.Fatalf("the spliced kernel (actor %d) is unnamed in the post-mortem:\n%s", id, pm)
	}
	if !strings.Contains(string(pm), "spliced-work  ") {
		t.Fatalf("no event of spliced-work in the post-mortem:\n%s", pm)
	}
}

// TestRewriteLinkHasRateEstimates: under WithServiceRateControl the
// estimator taps what every transaction adds, so the links a rewrite
// spliced in report λ̂ like the links of epoch 0, and the link it removed
// left the estimator with it.
func TestRewriteLinkHasRateEstimates(t *testing.T) {
	ex, _, _, added := spliceWork(t, WithServiceRateControl())
	rep, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Links) != 3 {
		t.Fatalf("%d link rows, want 3", len(rep.Links))
	}
	for _, l := range added {
		row := rep.Links[ex.reg.liveLink(l).li.ID]
		if row.JoinedAt == 0 || row.LambdaHat <= 0 {
			t.Errorf("added link %s: joined at %v, λ̂ %v; want a join stamp and λ̂ > 0", row.Name, row.JoinedAt, row.LambdaHat)
		}
	}
	if _, tapped := ex.est.Link(0); tapped {
		t.Error("the removed link keeps its estimator tap")
	}
}
