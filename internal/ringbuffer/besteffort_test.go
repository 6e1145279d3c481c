package ringbuffer

import (
	"testing"
	"time"
)

// TestRingBestEffortLatestWins checks the ring's overflow policy:
// pushes into a full ring evict the oldest elements, so the consumer sees
// the freshest suffix and the producer never blocks.
func TestRingBestEffortLatestWins(t *testing.T) {
	r := NewRing[int](4)
	r.SetBestEffort(true)
	for i := 0; i < 10; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if snap := r.Telemetry().Snapshot(); snap.Evicted != 6 || snap.Shed != 0 {
		t.Fatalf("evicted %d shed %d, want 6 and 0", snap.Evicted, snap.Shed)
	}
	// The four freshest elements survive, in order.
	for want := 6; want < 10; want++ {
		v, _, err := r.Pop()
		if err != nil || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, err, want)
		}
	}
	// Evictions must not count as Pops (they would contaminate µ̂).
	snap := r.Telemetry().Snapshot()
	if snap.Pops != 4 {
		t.Fatalf("Pops = %d, want 4 (drops must not count)", snap.Pops)
	}
	if snap.Pushes != 10 {
		t.Fatalf("Pushes = %d, want 10", snap.Pushes)
	}
}

// TestRingBestEffortPushN checks bulk pushes: a batch larger than the free
// region evicts the oldest elements instead of blocking.
func TestRingBestEffortPushN(t *testing.T) {
	r := NewRing[int](4)
	r.SetBestEffort(true)
	if err := r.PushN([]int{0, 1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.PushN([]int{4, 5, 6}, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.Telemetry().Drops(); got != 3 {
		t.Fatalf("Drops() = %d, want 3", got)
	}
	got := make([]int, 4)
	n, err := r.DrainTo(got, nil)
	if err != nil || n != 4 {
		t.Fatalf("drain = %d, %v", n, err)
	}
	for i, want := range []int{3, 4, 5, 6} {
		if got[i] != want {
			t.Fatalf("element %d = %d, want %d", i, got[i], want)
		}
	}
}

// TestRingBestEffortSignalPinned checks that a signal-carrying element is
// never evicted: the incoming signal-free element is shed instead, and a
// signal-carrying push falls back to blocking (here: succeeds after a pop).
func TestRingBestEffortSignalPinned(t *testing.T) {
	r := NewRing[int](2)
	r.SetBestEffort(true)
	if err := r.Push(1, SigEOF); err != nil {
		t.Fatal(err)
	}
	if err := r.Push(2, SigEOF); err != nil {
		t.Fatal(err)
	}
	// Full, head carries a signal: the incoming signal-free element sheds.
	if err := r.Push(3, SigNone); err != nil {
		t.Fatal(err)
	}
	if snap := r.Telemetry().Snapshot(); snap.Evicted != 0 || snap.Shed != 1 {
		t.Fatalf("evicted %d shed %d, want 0 and 1", snap.Evicted, snap.Shed)
	}
	v, sig, err := r.Pop()
	if err != nil || v != 1 || sig != SigEOF {
		t.Fatalf("pop = %d/%v/%v, want 1/eof", v, sig, err)
	}
}

// TestRingBestEffortNeverBlocks checks the latency contract: a producer
// flooding a full best-effort ring with no consumer returns promptly.
func TestRingBestEffortNeverBlocks(t *testing.T) {
	r := NewRing[int](2)
	r.SetBestEffort(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = r.Push(i, SigNone)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("best-effort producer blocked")
	}
	if r.Telemetry().Drops() == 0 {
		t.Fatal("expected drops")
	}
}
