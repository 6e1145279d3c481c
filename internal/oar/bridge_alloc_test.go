package oar

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"raftlib/internal/fault"
	"raftlib/kernels"
	"raftlib/raft"
)

// sendBatch stages one batch and transmits it, outside any kernel: the
// frame path without a queue in front of it.
func (s *Sender[T]) sendBatch(vals []T, sigs []raft.Signal) raft.Status {
	seq, st := s.stage(vals, sigs)
	if st != raft.Proceed {
		return st
	}
	if err := s.transmit(seq); err != nil {
		return s.giveUp(err)
	}
	return raft.Proceed
}

// newBenchSender wires a sender's wire path to a sink writer without a real
// connection, so the framing/encode path can be measured in isolation.
func newBenchSender(w io.Writer) *Sender[int64] {
	s := NewSender[int64]("unused", "allocs")
	s.w = w
	return s
}

// TestSenderSteadyStateAllocs pins the zero-allocation property of the
// sender's raw frame path: after warm-up (pool and replay buffer grown),
// sequencing + blob lease + frame write allocates nothing. The replay blob
// comes from the pool and the frame header and write vector persist.
func TestSenderSteadyStateAllocs(t *testing.T) {
	s := newBenchSender(io.Discard)
	vals := make([]int64, senderBatch)
	sigs := make([]raft.Signal, senderBatch) // all SigNone: payload omits them
	for i := range vals {
		vals[i] = int64(i)
	}
	send := func() {
		if st := s.sendBatch(vals, sigs); st != raft.Proceed {
			t.Fatal("sendBatch did not proceed")
		}
		// Ack immediately so the next call's prune recycles the blob.
		s.acked.Store(s.nextSeq)
	}
	for i := 0; i < 16; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("bridge sender allocates %.2f allocs/frame in steady state, want 0", avg)
	}
}

// TestSenderAllocsWithSignals covers the signal-carrying arm (signal bytes
// behind the elements): still allocation-free in steady state.
func TestSenderAllocsWithSignals(t *testing.T) {
	s := newBenchSender(io.Discard)
	vals := make([]int64, 64)
	sigs := make([]raft.Signal, 64)
	sigs[63] = raft.SigEOF
	send := func() {
		if st := s.sendBatch(vals, sigs); st != raft.Proceed {
			t.Fatal("sendBatch did not proceed")
		}
		s.acked.Store(s.nextSeq)
	}
	for i := 0; i < 16; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(200, send); avg != 0 {
		t.Fatalf("bridge sender allocates %.2f allocs/frame with signals, want 0", avg)
	}
}

// TestReceiverSteadyStateAllocs pins the receive side: once its batch slice
// has grown, reading a raw frame (header, bounds checks, element bytes read
// straight into the batch) allocates nothing per frame.
func TestReceiverSteadyStateAllocs(t *testing.T) {
	var wire bytes.Buffer
	s := newBenchSender(&wire)
	vals := make([]int64, senderBatch)
	sigs := make([]raft.Signal, senderBatch)
	const frames = 300 // warm-up + AllocsPerRun's 200 runs and its extra one
	for i := 0; i < frames; i++ {
		vals[0] = int64(i)
		if st := s.sendBatch(vals, sigs); st != raft.Proceed {
			t.Fatal("sendBatch did not proceed")
		}
		s.acked.Store(s.nextSeq)
	}
	r := &Receiver[int64]{reuseVals: true, rd: bytes.NewReader(wire.Bytes())}
	want := int64(0)
	recv := func() {
		h, dup, err := r.readFrame()
		if err != nil || dup || h.seq != uint64(want+1) || len(r.pl.Vals) != senderBatch || r.pl.Vals[0] != want {
			t.Fatalf("frame %d: seq %d dup %v err %v, %d vals", want, h.seq, dup, err, len(r.pl.Vals))
		}
		r.delivered = h.seq
		want++
	}
	for i := 0; i < 16; i++ {
		recv()
	}
	if avg := testing.AllocsPerRun(200, recv); avg != 0 {
		t.Fatalf("bridge receiver allocates %.2f allocs/frame in steady state, want 0", avg)
	}
}

// TestBridgeRoundTripPayloads verifies the two-layer wire format end to
// end over a real connection, on both frame encodings: raw frames for a
// pointer-free element, with replay-inducing faults (exactly-once across
// seq/ack/replay), and the persistent inner gob stream for a
// pointer-bearing one.
func TestBridgeRoundTripPayloads(t *testing.T) {
	node := newTestNode(t, "roundtrip")
	const n = 5000
	inj := fault.New()
	inj.SeverBridge("rt-view", 7)
	inj.CorruptBridge("rt-view", 13)
	got, errS, errR := runBridge(t, node, "rt-view", n, WithBridgeFault(inj),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if errS != nil || errR != nil {
		t.Fatalf("raw arm: exe errors: %v / %v", errS, errR)
	}
	requireExactSequence(t, got, n)

	send, recv, err := Bridge[string](node, "rt-gob")
	if err != nil {
		t.Fatal(err)
	}
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(n, func(i int64) string { return fmt.Sprint(i) }), send); err != nil {
		t.Fatal(err)
	}
	var strs []string
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, raft.NewLambda[string](1, 0, func(k *raft.LambdaKernel) raft.Status {
		v, err := raft.Pop[string](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		strs = append(strs, v)
		return raft.Proceed
	})); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _, errS = producer.Exe() }()
	_, errR = consumer.Exe()
	wg.Wait()
	if errS != nil || errR != nil {
		t.Fatalf("gob arm: exe errors: %v / %v", errS, errR)
	}
	if len(strs) != n {
		t.Fatalf("gob arm: received %d elements, want %d", len(strs), n)
	}
	for i, v := range strs {
		if v != fmt.Sprint(i) {
			t.Fatalf("gob arm: got[%d] = %q", i, v)
		}
	}
}

// BenchmarkSenderFrame reports the steady-state cost of one frame on the
// sender wire path (256 int64 elements, no live connection).
func BenchmarkSenderFrame(b *testing.B) {
	s := newBenchSender(io.Discard)
	vals := make([]int64, senderBatch)
	sigs := make([]raft.Signal, senderBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := s.sendBatch(vals, sigs); st != raft.Proceed {
			b.Fatal("sendBatch did not proceed")
		}
		s.acked.Store(s.nextSeq)
	}
}
