package ringbuffer

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRingPushPopOrder(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 4; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		v, s, err := r.Pop()
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if v != i || s != SigNone {
			t.Fatalf("pop %d = (%d, %v)", i, v, s)
		}
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := NewRing[int](0)
	if r.Cap() != DefaultCapacity {
		t.Fatalf("cap = %d, want %d", r.Cap(), DefaultCapacity)
	}
}

func TestRingSignalsTravelWithData(t *testing.T) {
	r := NewRing[string](2)
	if err := r.Push("a", SigNone); err != nil {
		t.Fatal(err)
	}
	if err := r.Push("last", SigEOF); err != nil {
		t.Fatal(err)
	}
	if _, s, _ := r.Pop(); s != SigNone {
		t.Fatalf("first signal = %v, want none", s)
	}
	v, s, err := r.Pop()
	if err != nil || v != "last" || s != SigEOF {
		t.Fatalf("second pop = (%q, %v, %v), want (last, eof, nil)", v, s, err)
	}
}

func TestRingBlockingPushUnblockedByPop(t *testing.T) {
	r := NewRing[int](1)
	if err := r.Push(1, SigNone); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Push(2, SigNone) }()
	// Give the producer time to block, then verify the monitor-visible
	// blocked-writer clock is running.
	deadline := time.Now().Add(2 * time.Second)
	for r.WriterBlockedFor() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never registered as blocked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if v, _, err := r.Pop(); err != nil || v != 1 {
		t.Fatalf("pop = (%d, %v)", v, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked push returned %v", err)
	}
	if r.WriterBlockedFor() != 0 {
		t.Fatal("writer still reported blocked after push completed")
	}
	if r.Telemetry().WriteBlockNs.Load() == 0 {
		t.Fatal("expected accumulated write-block time")
	}
}

func TestRingBlockingPopUnblockedByPush(t *testing.T) {
	r := NewRing[int](2)
	got := make(chan int, 1)
	go func() {
		v, _, err := r.Pop()
		if err != nil {
			got <- -1
			return
		}
		got <- v
	}()
	deadline := time.Now().Add(2 * time.Second)
	for r.ReaderStarvedFor() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("consumer never registered as starved")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.Push(7, SigNone); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != 7 {
		t.Fatalf("pop = %d, want 7", v)
	}
	if r.Telemetry().ReadBlockNs.Load() == 0 {
		t.Fatal("expected accumulated read-block time")
	}
}

func TestRingCloseSemantics(t *testing.T) {
	r := NewRing[int](4)
	if err := r.Push(1, SigNone); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if !r.Closed() {
		t.Fatal("ring should report closed")
	}
	// Buffered data remains readable after Close.
	if v, _, err := r.Pop(); err != nil || v != 1 {
		t.Fatalf("pop after close = (%d, %v)", v, err)
	}
	// Then drained reads report ErrClosed.
	if _, _, err := r.Pop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("pop on drained closed ring = %v, want ErrClosed", err)
	}
	if err := r.Push(2, SigNone); !errors.Is(err, ErrClosed) {
		t.Fatalf("push on closed ring = %v, want ErrClosed", err)
	}
}

func TestRingCloseWakesBlockedProducer(t *testing.T) {
	r := NewRing[int](1)
	if err := r.Push(1, SigNone); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Push(2, SigNone) }()
	for r.WriterBlockedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	r.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked push after close = %v, want ErrClosed", err)
	}
}

func TestRingCloseWakesBlockedConsumer(t *testing.T) {
	r := NewRing[int](2)
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Pop()
		done <- err
	}()
	for r.ReaderStarvedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	r.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked pop after close = %v, want ErrClosed", err)
	}
}

func TestRingTryPushTryPop(t *testing.T) {
	r := NewRing[int](1)
	ok, err := r.TryPush(1, SigNone)
	if !ok || err != nil {
		t.Fatalf("TryPush = (%v, %v)", ok, err)
	}
	ok, err = r.TryPush(2, SigNone)
	if ok || err != nil {
		t.Fatalf("TryPush full = (%v, %v), want (false, nil)", ok, err)
	}
	v, _, ok, err := r.TryPop()
	if !ok || err != nil || v != 1 {
		t.Fatalf("TryPop = (%d, %v, %v)", v, ok, err)
	}
	_, _, ok, err = r.TryPop()
	if ok || err != nil {
		t.Fatalf("TryPop empty = (%v, %v), want (false, nil)", ok, err)
	}
	r.Close()
	if _, _, _, err = r.TryPop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPop closed = %v, want ErrClosed", err)
	}
	if _, err = r.TryPush(3, SigNone); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPush closed = %v, want ErrClosed", err)
	}
}

func TestRingPeek(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 3; i++ {
		if err := r.Push(i*10, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		v, _, err := r.Peek(i)
		if err != nil || v != i*10 {
			t.Fatalf("Peek(%d) = (%d, %v)", i, v, err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("peek consumed data: len = %d", r.Len())
	}
}

func TestRingPeekRangeAndRecycle(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 6; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	vs, _, err := r.PeekRange(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if v != i {
			t.Fatalf("window[%d] = %d", i, v)
		}
	}
	r.Recycle(2) // slide by 2
	vs, _, err = r.PeekRange(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if v != i+2 {
			t.Fatalf("slid window[%d] = %d, want %d", i, v, i+2)
		}
	}
}

func TestRingPeekRangeWrapped(t *testing.T) {
	r := NewRing[int](4)
	// Advance head so that a later window wraps.
	for i := 0; i < 3; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := r.Pop(); err != nil { // head = 1
		t.Fatal(err)
	}
	if _, _, err := r.Pop(); err != nil { // head = 2
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ { // fills and wraps
		if err := r.Push(i, SigEOF); err != nil {
			t.Fatal(err)
		}
	}
	vs, ss, err := r.PeekRange(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 4, 5}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("wrapped window = %v, want %v", vs, want)
		}
	}
	if ss[0] != SigNone || ss[3] != SigEOF {
		t.Fatalf("wrapped signals = %v", ss)
	}
}

func TestRingPeekRangeGrowsOnOverdemand(t *testing.T) {
	r := NewRing[int](2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if err := r.Push(i, SigNone); err != nil {
				t.Errorf("push: %v", err)
				return
			}
		}
	}()
	// Demand exceeds capacity: the read-side resize rule must grow the ring
	// so the request is fulfilled rather than deadlocking.
	vs, _, err := r.PeekRange(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 8 {
		t.Fatalf("window len = %d, want 8", len(vs))
	}
	if r.Cap() < 8 {
		t.Fatalf("cap after overdemand = %d, want >= 8", r.Cap())
	}
	if r.Telemetry().Grows.Load() == 0 {
		t.Fatal("expected a recorded grow")
	}
	<-done
}

func TestRingPeekRangeOverdemandBeyondMaxCap(t *testing.T) {
	r := NewRing[int](2)
	r.SetMaxCap(4)
	go func() {
		for i := 0; i < 10; i++ {
			if err := r.Push(i, SigNone); err != nil {
				return
			}
		}
	}()
	vs, _, err := r.PeekRange(10) // demand above maxCap must still be met
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 10 {
		t.Fatalf("window len = %d, want 10", len(vs))
	}
}

func TestRingPeekRangeShortOnClose(t *testing.T) {
	r := NewRing[int](8)
	if err := r.Push(1, SigNone); err != nil {
		t.Fatal(err)
	}
	if err := r.Push(2, SigNone); err != nil {
		t.Fatal(err)
	}
	r.Close()
	vs, _, err := r.PeekRange(5)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("short window = %v, want [1 2]", vs)
	}
	r.Recycle(2)
	vs, _, err = r.PeekRange(1)
	if !errors.Is(err, ErrClosed) || len(vs) != 0 {
		t.Fatalf("drained window = (%v, %v)", vs, err)
	}
}

func TestRingPeekRangeZero(t *testing.T) {
	r := NewRing[int](2)
	vs, ss, err := r.PeekRange(0)
	if vs != nil || ss != nil || err != nil {
		t.Fatalf("PeekRange(0) = (%v, %v, %v)", vs, ss, err)
	}
}

func TestRingRecycleValidation(t *testing.T) {
	r := NewRing[int](4)
	r.Recycle(0)  // no-op
	r.Recycle(-1) // no-op
	defer func() {
		if recover() == nil {
			t.Fatal("Recycle past end should panic")
		}
	}()
	r.Recycle(1)
}

func TestRingResizeGrowPreservesOrder(t *testing.T) {
	r := NewRing[int](4)
	// Create a wrapped state: head != 0.
	for i := 0; i < 4; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := r.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i < 6; i++ {
		if err := r.Push(i, Signal(SigUser)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Resize(16); err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", r.Cap())
	}
	want := []int{2, 3, 4, 5}
	for _, w := range want {
		v, _, err := r.Pop()
		if err != nil || v != w {
			t.Fatalf("pop after resize = (%d, %v), want %d", v, err, w)
		}
	}
}

func TestRingResizeShrink(t *testing.T) {
	r := NewRing[int](16)
	for i := 0; i < 4; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Resize(2); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("shrink below len = %v, want ErrTooSmall", err)
	}
	if err := r.Resize(4); err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", r.Cap())
	}
	tel := r.Telemetry().Snapshot()
	if tel.Shrinks != 1 {
		t.Fatalf("shrinks = %d, want 1", tel.Shrinks)
	}
}

func TestRingResizeUnblocksProducer(t *testing.T) {
	r := NewRing[int](1)
	if err := r.Push(0, SigNone); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Push(1, SigNone) }()
	for r.WriterBlockedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	// The monitor's write-side rule fires a grow; producer must proceed.
	if err := r.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("push after grow = %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
}

func TestRingResizeMaxCapClamp(t *testing.T) {
	r := NewRing[int](2)
	r.SetMaxCap(8)
	if err := r.Resize(64); err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 8 {
		t.Fatalf("cap = %d, want clamped 8", r.Cap())
	}
	if err := r.Resize(0); err != nil { // clamped up to 1
		t.Fatal(err)
	}
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, want 1", r.Cap())
	}
}

func TestRingResizeNoop(t *testing.T) {
	r := NewRing[int](8)
	if err := r.Resize(8); err != nil {
		t.Fatal(err)
	}
	if r.Telemetry().Resizes.Load() != 0 {
		t.Fatal("same-size resize should be a no-op")
	}
}

// TestRingPushNFinalSignal: a bulk push larger than the ring, whose last
// element carries a signal, arrives in order with the signal aligned.
func TestRingPushNFinalSignal(t *testing.T) {
	r := NewRing[int](4)
	done := make(chan error, 1)
	sigs := make([]Signal, 8)
	sigs[7] = SigEOF
	go func() { done <- r.PushN([]int{0, 1, 2, 3, 4, 5, 6, 7}, sigs) }()
	for i := 0; i < 8; i++ {
		v, s, err := r.Pop()
		if err != nil || v != i {
			t.Fatalf("pop %d = (%d, %v)", i, v, err)
		}
		wantSig := SigNone
		if i == 7 {
			wantSig = SigEOF
		}
		if s != wantSig {
			t.Fatalf("signal at %d = %v, want %v", i, s, wantSig)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := r.Telemetry().Pushes.Load(); got != 8 {
		t.Fatalf("pushes = %d, want 8", got)
	}
}

func TestRingPushNClosed(t *testing.T) {
	r := NewRing[int](2)
	r.Close()
	if err := r.PushN([]int{1}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch on closed = %v, want ErrClosed", err)
	}
}

func TestRingFromSlice(t *testing.T) {
	data := []int{10, 20, 30}
	r := NewRingFromSlice(data)
	if !r.Closed() {
		t.Fatal("slice ring must be born closed")
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	// Zero copy: the window must alias the caller's array.
	vs, _, err := r.PeekRange(3)
	if err != nil && !errors.Is(err, ErrClosed) {
		t.Fatal(err)
	}
	if &vs[0] != &data[0] {
		t.Fatal("PeekRange on slice ring must alias the source array")
	}
	if err := r.Push(40, SigNone); !errors.Is(err, ErrClosed) {
		t.Fatalf("push on read-only ring = %v, want ErrClosed", err)
	}
	if err := r.Resize(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("resize on read-only ring = %v, want ErrClosed", err)
	}
	for _, w := range data {
		v, _, err := r.Pop()
		if err != nil || v != w {
			t.Fatalf("pop = (%d, %v), want %d", v, err, w)
		}
	}
	if _, _, err := r.Pop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained slice ring pop = %v, want ErrClosed", err)
	}
	if data[0] != 10 || data[1] != 20 || data[2] != 30 {
		t.Fatalf("draining the slice ring wrote to the caller's array: %v", data)
	}
}

func TestRingConcurrentProducerConsumer(t *testing.T) {
	const total = 100_000
	r := NewRing[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := r.Push(i, SigNone); err != nil {
				t.Errorf("push: %v", err)
				return
			}
		}
		r.Close()
	}()
	var got int
	for {
		v, _, err := r.Pop()
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if v != got {
			t.Fatalf("out of order: got %d, want %d", v, got)
		}
		got++
	}
	wg.Wait()
	if got != total {
		t.Fatalf("received %d, want %d", got, total)
	}
	tel := r.Telemetry().Snapshot()
	if tel.Pushes != total || tel.Pops != total {
		t.Fatalf("telemetry = %+v", tel)
	}
}

func TestRingConcurrentWithMonitorResizes(t *testing.T) {
	const total = 50_000
	r := NewRing[int](8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a monitor growing and shrinking while traffic flows
		defer wg.Done()
		caps := []int{16, 8, 64, 32, 128, 8}
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Resize(caps[i%len(caps)]) // ErrTooSmall is fine
			i++
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := r.Push(i, SigNone); err != nil {
				t.Errorf("push: %v", err)
				return
			}
		}
		r.Close()
	}()
	var next int
	for {
		v, _, err := r.Pop()
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if v != next {
			t.Fatalf("out of order under resize: got %d, want %d", v, next)
		}
		next++
	}
	close(stop)
	wg.Wait()
	if next != total {
		t.Fatalf("received %d, want %d", next, total)
	}
}

// Property: any interleaving of pushes and pops through a small ring
// preserves FIFO order and loses nothing.
func TestRingPropertyFIFO(t *testing.T) {
	f := func(vals []int16, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		r := NewRing[int16](capacity)
		go func() {
			for _, v := range vals {
				if err := r.Push(v, SigNone); err != nil {
					return
				}
			}
			r.Close()
		}()
		for i := 0; ; i++ {
			v, _, err := r.Pop()
			if errors.Is(err, ErrClosed) {
				return i == len(vals)
			}
			if err != nil || i >= len(vals) || v != vals[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: resizing at arbitrary points never reorders or drops elements.
func TestRingPropertyResizePreservesContents(t *testing.T) {
	f := func(vals []int8, newCaps []uint8) bool {
		r := NewRing[int8](4)
		pushed := 0
		popped := 0
		expect := func(v int8) bool {
			ok := v == vals[popped]
			popped++
			return ok
		}
		for pushed < len(vals) || popped < pushed {
			if pushed < len(vals) {
				if ok, _ := r.TryPush(vals[pushed], SigNone); ok {
					pushed++
				}
			}
			if len(newCaps) > 0 {
				c := int(newCaps[0]%64) + 1
				newCaps = newCaps[1:]
				_ = r.Resize(c)
			}
			if v, _, ok, _ := r.TryPop(); ok {
				if !expect(v) {
					return false
				}
			}
		}
		return popped == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGrowTarget(t *testing.T) {
	cases := []struct{ demand, maxCap, want int }{
		{3, 0, 4},
		{4, 0, 4},
		{5, 0, 8},
		{5, 6, 6},
		{10, 6, 10}, // demand above maxCap: fulfilled anyway
		{1, 0, 1},
	}
	for _, c := range cases {
		if got := growTarget(c.demand, c.maxCap); got != c.want {
			t.Errorf("growTarget(%d, %d) = %d, want %d", c.demand, c.maxCap, got, c.want)
		}
	}
}

func TestOccupancyHistogramRing(t *testing.T) {
	r := NewRing[int](16)
	// Occupancies after each push: 1, 2, 3, 4 -> buckets 0,1,1,2.
	for i := 0; i < 4; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Telemetry().Snapshot()
	if snap.Occupancy[0] != 1 || snap.Occupancy[1] != 2 || snap.Occupancy[2] != 1 {
		t.Fatalf("occupancy buckets = %v", snap.Occupancy[:4])
	}
	// Bulk push records once per batch at the resulting occupancy (4+8=12
	// -> bucket 3).
	if err := r.PushN(make([]int, 8), nil); err != nil {
		t.Fatal(err)
	}
	snap = r.Telemetry().Snapshot()
	if snap.Occupancy[3] != 1 {
		t.Fatalf("bulk occupancy buckets = %v", snap.Occupancy[:5])
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := NewRing[int](1024)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			_ = r.Push(i, SigNone)
		}
		r.Close()
	}()
	for {
		_, _, err := r.Pop()
		if err != nil {
			break
		}
	}
}

func BenchmarkGoChannelPushPop(b *testing.B) {
	ch := make(chan int, 1024)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			ch <- i
		}
		close(ch)
	}()
	for range ch {
	}
}
