package raft

import (
	"testing"
)

// newPort builds a port of no kernel, for tests that bind ports by hand.
func newPort[T any](name string, dir Direction) *Port {
	return &Port{name: name, dir: dir, ops: ringOps[T]{}}
}

// bulkHarness binds a pair of ports to one queue, mimicking allocate().
func bulkHarness(t *testing.T) (*Port, *Port) {
	t.Helper()
	src := newPort[int]("out", Out)
	dst := newPort[int]("in", In)
	q := src.ops.rings(1)(8, 0)
	ls := &linkSlot{}
	src.bind(q, ls)
	dst.bind(q, ls)
	return src, dst
}

func TestBulkAccessorsRing(t *testing.T) {
	src, dst := bulkHarness(t)
	vs := []int{1, 2, 3, 4, 5}
	sigs := []Signal{SigNone, SigUser, SigNone, SigNone, SigEOF}
	if err := PushNSig(src, vs, sigs); err != nil {
		t.Fatal(err)
	}
	gotV := make([]int, 8)
	gotS := make([]Signal, 8)
	n, err := PopNSig[int](dst, gotV, gotS)
	if err != nil || n != 5 {
		t.Fatalf("PopNSig = (%d,%v), want (5,nil)", n, err)
	}
	for i := range vs {
		if gotV[i] != vs[i] || gotS[i] != sigs[i] {
			t.Fatalf("element %d = (%d,%v), want (%d,%v)", i, gotV[i], gotS[i], vs[i], sigs[i])
		}
	}
	// DrainTo on the now-empty open stream: (0, nil).
	if n, err := DrainTo[int](dst, gotV); n != 0 || err != nil {
		t.Fatalf("DrainTo empty = (%d,%v), want (0,nil)", n, err)
	}
	src.Close()
	if n, err := PopN[int](dst, gotV); n != 0 || err != ErrClosed {
		t.Fatalf("PopN closed = (%d,%v), want (0,ErrClosed)", n, err)
	}
}

// TestBulkTypeMismatchPanics mirrors the element-wise accessors' contract.
func TestBulkTypeMismatchPanics(t *testing.T) {
	src, _ := bulkHarness(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type mismatch")
		}
	}()
	_ = PushN(src, []string{"x"})
}

// TestBatchHint checks the 0-means-default contract and the nil-safety of
// unbound ports.
func TestBatchHint(t *testing.T) {
	p := newPort[int]("out", Out)
	if got := p.BatchHint(16); got != 16 {
		t.Fatalf("unbound BatchHint = %d, want fallback 16", got)
	}
	src, _ := bulkHarness(t)
	if got := src.BatchHint(16); got != 16 {
		t.Fatalf("no-decision BatchHint = %d, want 16", got)
	}
	src.batch().Set(64)
	if got := src.BatchHint(16); got != 64 {
		t.Fatalf("decided BatchHint = %d, want 64", got)
	}
}

// TestMoveBatchedEquivalence moves a signalled stream through the adapters'
// framed mover and checks the destination matches the source exactly.
func TestMoveBatchedEquivalence(t *testing.T) {
	src, _ := bulkHarness(t)
	out, in := bulkHarness(t)
	const total = 300
	go func() {
		for i := 0; i < total; i++ {
			sig := SigNone
			if i%7 == 0 {
				sig = SigUser
			}
			if err := PushSig(src, i, sig); err != nil {
				return
			}
		}
		src.Close()
	}()
	go func() {
		// The mover never waits; this loop waits where a scheduler would,
		// on the end that could not be served.
		for {
			n, err := src.ops.move(src.q, out.q, 16)
			switch {
			case err != nil:
				out.Close()
				return
			case n == 0 && src.q.Len() == 0:
				src.q.Wait(false)
			case n == 0:
				out.q.Wait(true)
			}
		}
	}()
	want := 0
	for {
		v, s, err := PopSig[int](in)
		if err != nil {
			break
		}
		wantSig := SigNone
		if want%7 == 0 {
			wantSig = SigUser
		}
		if v != want || s != wantSig {
			t.Fatalf("element %d = (%d,%v), want (%d,%v)", want, v, s, want, wantSig)
		}
		want++
	}
	if want != total {
		t.Fatalf("moved %d elements, want %d", want, total)
	}
}

// TestExeAdaptiveBatchingEquivalence runs the same pipeline with and
// without adaptive batching and requires byte-identical results.
func TestExeAdaptiveBatchingEquivalence(t *testing.T) {
	run := func(opts ...Option) []int {
		src := &sliceSource{vals: seq(0, 500)}
		src.SetName("src")
		AddOutput[int](src, "out")
		var got []int
		sink := &sliceSink{dst: &got}
		sink.SetName("sink")
		AddInput[int](sink, "in")
		m := NewMap()
		m.MustLink(src, sink)
		if _, err := m.Exe(opts...); err != nil {
			t.Fatal(err)
		}
		return got
	}
	plain := run()
	adaptive := run(WithAdaptiveBatching(true))
	if len(plain) != len(adaptive) {
		t.Fatalf("lengths differ: %d vs %d", len(plain), len(adaptive))
	}
	for i := range plain {
		if plain[i] != adaptive[i] {
			t.Fatalf("element %d differs: %d vs %d", i, plain[i], adaptive[i])
		}
	}
}

// TestAsLowLatencyPinsBatch verifies the link option pins the control at 1
// and reports LatencyPriority to the monitor.
func TestAsLowLatencyPinsBatch(t *testing.T) {
	src := &sliceSource{vals: seq(0, 10)}
	src.SetName("src")
	AddOutput[int](src, "out")
	var got []int
	sink := &sliceSink{dst: &got}
	sink.SetName("sink")
	AddInput[int](sink, "in")
	m := NewMap()
	l := m.MustLink(src, sink, AsLowLatency(), Cap(8))
	if !l.LowLatency() {
		t.Fatal("link not marked low-latency")
	}
	ex, err := m.ExeAsync()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	info := ex.reg.links[0].li
	if !info.LatencyPriority {
		t.Fatal("LinkInfo.LatencyPriority not set")
	}
	if !info.Batch.Pinned() || info.Batch.Get() != 1 {
		t.Fatalf("batch = %d pinned=%v, want pinned at 1", info.Batch.Get(), info.Batch.Pinned())
	}
	if l.SrcPort.BatchHint(99) != 1 || l.DstPort.BatchHint(99) != 1 {
		t.Fatal("ports do not see the pinned batch size")
	}
}

// --- minimal helper kernels ---

type sliceSource struct {
	KernelBase
	vals []int
	i    int
}

func (s *sliceSource) Run() Status {
	if s.i >= len(s.vals) {
		return Stop
	}
	if err := Push(s.Out("out"), s.vals[s.i]); err != nil {
		return Stop
	}
	s.i++
	return Proceed
}

type sliceSink struct {
	KernelBase
	dst *[]int
}

func (s *sliceSink) Run() Status {
	v, err := Pop[int](s.In("in"))
	if err != nil {
		return Stop
	}
	*s.dst = append(*s.dst, v)
	return Proceed
}

func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}
