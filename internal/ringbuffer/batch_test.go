package ringbuffer

import "testing"

// TestRingPushNWrapAround forces a batch across the physical end of the
// ring and checks FIFO order and signal alignment on the way out.
func TestRingPushNWrapAround(t *testing.T) {
	r := NewRing[int](8)
	// Advance head so the next batch must split: fill 6, drain 5.
	for i := 0; i < 6; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, _, err := r.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	// One buffered element (5) at index 5; pushing 6 wraps.
	vs := []int{10, 11, 12, 13, 14, 15}
	sigs := []Signal{SigNone, SigUser, SigNone, SigNone, SigUser, SigEOF}
	if err := r.PushN(vs, sigs); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 7 {
		t.Fatalf("Len = %d, want 7", r.Len())
	}
	if v, s, err := r.Pop(); err != nil || v != 5 || s != SigNone {
		t.Fatalf("Pop = (%d,%v,%v), want (5,SigNone,nil)", v, s, err)
	}
	dst := make([]int, 6)
	out := make([]Signal, 6)
	n, err := r.PopN(dst, out)
	if err != nil || n != 6 {
		t.Fatalf("PopN = (%d,%v), want (6,nil)", n, err)
	}
	for i := range vs {
		if dst[i] != vs[i] || out[i] != sigs[i] {
			t.Fatalf("element %d = (%d,%v), want (%d,%v)", i, dst[i], out[i], vs[i], sigs[i])
		}
	}
}

// TestRingPushNChunksOversizedBatch verifies a batch larger than the free
// space (even larger than capacity) is delivered completely, in order, by
// chunking against a concurrent consumer.
func TestRingPushNChunksOversizedBatch(t *testing.T) {
	r := NewRing[int](4)
	vs := make([]int, 100)
	for i := range vs {
		vs[i] = i
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := r.PushN(vs, nil); err != nil {
			t.Errorf("PushN: %v", err)
		}
		r.Close()
	}()
	var got []int
	dst := make([]int, 7)
	for {
		n, err := r.PopN(dst, nil)
		got = append(got, dst[:n]...)
		if err != nil {
			break
		}
	}
	<-done
	if len(got) != len(vs) {
		t.Fatalf("received %d, want %d", len(got), len(vs))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
}

// TestRingDrainToSemantics: empty+open → (0,nil); closed+drained →
// (0,ErrClosed).
func TestRingDrainToSemantics(t *testing.T) {
	r := NewRing[int](4)
	dst := make([]int, 4)
	if n, err := r.DrainTo(dst, nil); n != 0 || err != nil {
		t.Fatalf("empty DrainTo = (%d,%v), want (0,nil)", n, err)
	}
	r.Push(1, SigNone)
	r.Push(2, SigNone)
	r.Close()
	if n, err := r.DrainTo(dst, nil); n != 2 || err != nil {
		t.Fatalf("DrainTo = (%d,%v), want (2,nil)", n, err)
	}
	if n, err := r.DrainTo(dst, nil); n != 0 || err != ErrClosed {
		t.Fatalf("drained DrainTo = (%d,%v), want (0,ErrClosed)", n, err)
	}
}

// TestRingPushNStaleSignalCleared ensures a nil-sigs bulk push clears
// signal slots left over from earlier signalled elements.
func TestRingPushNStaleSignalCleared(t *testing.T) {
	r := NewRing[int](4)
	r.Push(1, SigUser)
	r.Pop() // slot 0 retains SigUser in the signal array
	for i := 0; i < 3; i++ {
		r.Push(0, SigNone)
	}
	r.Pop()
	r.Pop()
	r.Pop()
	// Next write lands on the stale slot; bulk push with nil sigs.
	if err := r.PushN([]int{7, 8}, nil); err != nil {
		t.Fatal(err)
	}
	if _, s, err := r.Pop(); err != nil || s != SigNone {
		t.Fatalf("stale signal leaked: sig=%v err=%v", s, err)
	}
}
