package ringbuffer

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// pushW and popW are the port layer's scalar operations: fast path first,
// slow path when it declines.
func pushW(r *Ring[int], v, max int) error {
	if stored, attend := r.WindowPush(v); stored {
		if attend {
			r.Attend()
		}
		return nil
	}
	_, _, err := r.PushWindowed(v, SigNone, max, true)
	return err
}

func popW(r *Ring[int], max int) (int, error) {
	if v, _, ok := r.WindowPop(); ok {
		return v, nil
	}
	v, _, _, _, err := r.PopWindowed(max, true)
	return v, err
}

func pushes(r *Ring[int]) uint64 { return r.Telemetry().Pushes.Load() }
func pops(r *Ring[int]) uint64   { return r.Telemetry().Pops.Load() }

// TestWindowCommitsWhenFullReleasesWhenEmpty is retire rule 1 at the ring:
// a window costs one synchronisation, when its last slot is written or its
// last element read.
func TestWindowCommitsWhenFullReleasesWhenEmpty(t *testing.T) {
	r := NewRing[int](16)
	for i := 0; i < 4; i++ {
		if pushes(r) != 0 {
			t.Fatalf("committed %d elements before the window of 4 was full (at %d)", pushes(r), i)
		}
		if r.WindowPos(true) != i {
			t.Fatalf("write cursor = %d, want %d", r.WindowPos(true), i)
		}
		if err := pushW(r, i, 4); err != nil {
			t.Fatal(err)
		}
	}
	if pushes(r) != 4 || r.WindowPos(true) != 0 {
		t.Fatalf("after the 4th push: committed %d, cursor %d; want 4, 0", pushes(r), r.WindowPos(true))
	}
	if got := r.Telemetry().Snapshot().Occupancy; got[2] != 1 {
		t.Fatalf("occupancy samples = %v, want one sample at 4", got[:4])
	}
	for i := 0; i < 4; i++ {
		if pops(r) != 0 {
			t.Fatalf("released %d elements before the window of 4 was read (at %d)", pops(r), i)
		}
		v, err := popW(r, 4)
		if err != nil || v != i {
			t.Fatalf("pop %d = %d, %v", i, v, err)
		}
	}
	if pops(r) != 4 || r.WindowPos(false) != 0 || r.Len() != 0 {
		t.Fatalf("after the 4th pop: released %d, cursor %d, len %d", pops(r), r.WindowPos(false), r.Len())
	}
}

// TestWindowLengthOneIsPushPop: at window length 1 nothing is borrowed and
// every element is its own commit — Push and Pop are exactly that.
func TestWindowLengthOneIsPushPop(t *testing.T) {
	r := NewRing[int](16)
	for i := 0; i < 5; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
		if pushes(r) != uint64(i+1) || r.WindowPos(true) != 0 {
			t.Fatalf("push %d: committed %d, cursor %d", i, pushes(r), r.WindowPos(true))
		}
	}
	for i := 0; i < 5; i++ {
		v, _, err := r.Pop()
		if err != nil || v != i || pops(r) != uint64(i+1) || r.WindowPos(false) != 0 {
			t.Fatalf("pop %d = %d, %v; released %d, cursor %d", i, v, err, pops(r), r.WindowPos(false))
		}
	}
}

// TestWindowHalfRingAndContiguous: a window never takes more than half the
// ring, nor wraps.
func TestWindowHalfRingAndContiguous(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 4; i++ {
		_ = pushW(r, i, 64)
	}
	if pushes(r) != 4 {
		t.Fatalf("window of 64 on a ring of 8 committed after %d, want 4", pushes(r))
	}
	// Move head to 3, so the free run up to the end of storage is 4, 5, 6, 7
	// and a window opened at index 6 has two slots.
	for i := 0; i < 3; i++ {
		_, _, _ = r.Pop()
	}
	_ = r.Push(4, SigNone)
	_ = r.Push(5, SigNone)
	base := pushes(r)
	_ = pushW(r, 6, 64)
	_ = pushW(r, 7, 64)
	if pushes(r) != base+2 {
		t.Fatalf("window at the end of storage held %d elements, want 2", pushes(r)-base)
	}
	for want := 3; want <= 7; want++ {
		if v, err := popW(r, 64); err != nil || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, err, want)
		}
	}
}

// TestWindowSignalCommitsAtOnce is retire rule 3: a signal-carrying element
// commits together with everything before it, and arrives aligned.
func TestWindowSignalCommitsAtOnce(t *testing.T) {
	r := NewRing[int](16)
	_ = pushW(r, 0, 8)
	_ = pushW(r, 1, 8)
	if _, _, err := r.PushWindowed(2, SigUser, 8, true); err != nil {
		t.Fatal(err)
	}
	if pushes(r) != 3 || r.WindowPos(true) != 0 {
		t.Fatalf("after the signal: committed %d, cursor %d; want 3, 0", pushes(r), r.WindowPos(true))
	}
	// A signal with no window open is pushed directly.
	if n, _, _ := r.PushWindowed(3, SigEOF, 8, true); n != 1 || r.WindowPos(true) != 0 {
		t.Fatalf("signal on a closed window committed %d, cursor %d", n, r.WindowPos(true))
	}
	want := []Signal{SigNone, SigNone, SigUser, SigEOF}
	for i, ws := range want {
		v, s, _, _, err := r.PopWindowed(8, true)
		if err != nil || v != i || s != ws {
			t.Fatalf("pop %d = %d, %v, %v; want signal %v", i, v, s, err, ws)
		}
	}
}

// TestWindowBestEffortNotWindowed: a held window would turn latest-wins
// into shedding, so a best-effort ring keeps one commit per element.
func TestWindowBestEffortNotWindowed(t *testing.T) {
	r := NewRing[int](4)
	r.SetBestEffort(true)
	for i := 0; i < 10; i++ {
		_ = pushW(r, i, 64)
		if r.WindowPos(true) != 0 {
			t.Fatal("write window opened on a best-effort ring")
		}
	}
	tel := r.Telemetry().Snapshot()
	if tel.Pushes != 10 || tel.Evicted != 6 || tel.Shed != 0 {
		t.Fatalf("pushes %d evicted %d shed %d, want 10, 6 and 0 (latest wins)", tel.Pushes, tel.Evicted, tel.Shed)
	}
	for want := 6; want < 10; want++ {
		if v, _ := popW(r, 64); v != want || r.WindowPos(false) != 0 {
			t.Fatalf("pop = %d (cursor %d), want %d and no read window", v, r.WindowPos(false), want)
		}
	}
}

// TestWindowDefersResize states the monitor's view of a window: it is not a
// held view. A resize that meets a write window is accepted, reported
// pending, and applied when the window ends — at most one window away; one
// that meets a read window applies at once, the window reading on in the
// store the resize sealed.
func TestWindowDefersResize(t *testing.T) {
	r := NewRing[int](16)
	_ = pushW(r, 0, 8)
	if r.ViewHeldFor() != 0 {
		t.Fatal("a port window reports a view hold time")
	}
	if err := r.Resize(64); err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 16 || !r.ResizePending() {
		t.Fatalf("cap %d pending %v under an open write window, want 16 and pending", r.Cap(), r.ResizePending())
	}
	if n := r.CommitWindow(); n != 1 {
		t.Fatalf("commit = %d", n)
	}
	if r.Cap() != 64 || r.ResizePending() {
		t.Fatalf("cap %d pending %v after the commit, want 64 and applied", r.Cap(), r.ResizePending())
	}
	// The read side does not hold a resize up.
	for i := 1; i < 6; i++ {
		_ = r.Push(i, SigNone)
	}
	if v, _ := popW(r, 4); v != 0 {
		t.Fatalf("pop = %d, want 0", v)
	}
	if v, _ := popW(r, 4); v != 1 || r.WindowPos(false) != 1 {
		t.Fatalf("pop = %d, cursor %d", v, r.WindowPos(false))
	}
	_ = r.Resize(8)
	if r.Cap() != 8 || r.ResizePending() || r.ViewHeldFor() != 0 {
		t.Fatalf("cap %d pending %v hold %v under an open read window", r.Cap(), r.ResizePending(), r.ViewHeldFor())
	}
	if v, _ := popW(r, 4); v != 2 {
		t.Fatalf("pop = %d, want 2 out of the sealed store", v)
	}
	if n := r.ReleaseWindow(); n != 2 {
		t.Fatalf("release = %d, want 2", n)
	}
	tel := r.Telemetry().Snapshot()
	if tel.Views != 0 || tel.ViewHoldNs != 0 {
		t.Fatalf("windows counted as views: %d views, %d ns", tel.Views, tel.ViewHoldNs)
	}
	for want := 3; want < 6; want++ {
		if v, _ := popW(r, 4); v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
	}
}

// TestWindowConsumerPullsWhatIsWritten: the consumer never goes without an
// element the producer has finished writing, commit or no commit: each push
// into a window publishes the ring's tail. The commit counts the window.
func TestWindowConsumerPullsWhatIsWritten(t *testing.T) {
	r := NewRing[int](16)
	_ = pushW(r, 7, 8)
	_ = pushW(r, 8, 8)
	if pushes(r) != 0 || r.Len() != 2 {
		t.Fatalf("committed %d, len %d; want 0 committed and 2 obtainable", pushes(r), r.Len())
	}
	v, _, ok, err := r.TryPop()
	if !ok || err != nil || v != 7 {
		t.Fatalf("TryPop = %d, %v, %v", v, ok, err)
	}
	buf := make([]int, 4)
	if n, _ := r.DrainTo(buf, nil); n != 1 || buf[0] != 8 {
		t.Fatalf("DrainTo = %d %v", n, buf[:n])
	}
	// The producer writes on and commits: the count covers the window.
	_ = pushW(r, 9, 8)
	if n := r.CommitWindow(); n != 3 {
		t.Fatalf("commit reports %d elements carried, want 3", n)
	}
	if pushes(r) != 3 || r.Len() != 1 {
		t.Fatalf("pushes %d len %d, want 3 and 1", pushes(r), r.Len())
	}
	if v, _, _ := r.Pop(); v != 9 {
		t.Fatalf("pop = %d, want 9", v)
	}

}

// TestWindowSleepingConsumerIsWoken: a consumer that found nothing and went
// to sleep is woken by the producer's next push, wherever that push lands —
// the push that opens a window, or a slot store into one already open,
// which finds rattn raised. The producer here pushes once and never comes
// back (it stands for a kernel blocked inside Run on a channel), so nothing
// but that one push can deliver the element.
func TestWindowSleepingConsumerIsWoken(t *testing.T) {
	asleep := func(r *Ring[int]) chan int {
		got := make(chan int)
		go func() {
			v, _, _ := r.Pop()
			got <- v
		}()
		for r.ReaderStarvedFor() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		return got
	}
	receive := func(got chan int, want int) {
		t.Helper()
		select {
		case v := <-got:
			if v != want {
				t.Fatalf("sleeping consumer got %d, want %d", v, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("sleeping consumer never received the element pushed after it went to sleep")
		}
	}

	// Asleep before any window exists: the push that opens one wakes it.
	r := NewRing[int](16)
	got := asleep(r)
	_ = pushW(r, 10, 8)
	receive(got, 10)
	if r.WindowPos(true) != 1 || pushes(r) != 0 {
		t.Fatalf("cursor %d, pushes %d; want the window open and uncounted", r.WindowPos(true), pushes(r))
	}

	// Asleep beside the open window.
	got = asleep(r)
	_ = pushW(r, 12, 8) // fast path: one slot store, then rattn is seen
	receive(got, 12)
	if r.WindowPos(true) != 2 {
		t.Fatalf("the window was retired to wake the consumer: cursor %d, want 2", r.WindowPos(true))
	}
	// Awake again, the consumer costs the producer nothing.
	_ = pushW(r, 13, 8)
	if n := r.CommitWindow(); n != 3 || pushes(r) != 3 {
		t.Fatalf("commit = %d, pushes %d; want 3 and 3", n, pushes(r))
	}
	if v, _, _ := r.Pop(); v != 13 {
		t.Fatalf("pop = %d, want 13", v)
	}
}

// TestWindowClosedUnderProducer: a ring closed by someone other than its
// producer while a write window is open (a consumer that died, an aborted
// run) stops accepting at the producer's next push — one element late, not
// a window late. What was published before the producer saw the close
// stays deliverable and is counted.
func TestWindowClosedUnderProducer(t *testing.T) {
	r := NewRing[int](16)
	for i := 0; i < 3; i++ {
		_ = pushW(r, i, 8)
	}
	if v, _, _ := r.Pop(); v != 0 {
		t.Fatalf("pop = %d, want 0", v)
	}
	_ = pushW(r, 3, 8)
	r.Close()
	if err := pushW(r, 4, 8); err != nil {
		t.Fatalf("the push that discovers the close: %v", err)
	}
	if r.WindowPos(true) != 0 {
		t.Fatalf("window still open after the producer saw the close: cursor %d", r.WindowPos(true))
	}
	if err := pushW(r, 5, 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close = %v, want ErrClosed", err)
	}
	if pushes(r) != 5 || r.Len() != 4 {
		t.Fatalf("pushes %d, len %d; want 5 published and 4 not popped", pushes(r), r.Len())
	}
	for want := 1; want < 5; want++ {
		if v, _, err := r.Pop(); err != nil || v != want {
			t.Fatalf("drain = %d, %v; want %d", v, err, want)
		}
	}
	if _, _, err := r.Pop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained closed ring: %v", err)
	}

	// The same at the last slot of a window: the push is refused and the
	// window ends with what it delivered.
	r = NewRing[int](16)
	_ = pushW(r, 0, 2)
	r.Close()
	n, ok, err := r.PushWindowed(1, SigNone, 2, true)
	if n != 1 || ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("commit into a closed ring = %d, %v, %v; want 1, false, ErrClosed", n, ok, err)
	}
	if pushes(r) != 1 || r.Len() != 1 {
		t.Fatalf("closed ring took %d pushes, len %d; want 1 and 1", pushes(r), r.Len())
	}
}

// windowOwner records retires and, like a kernel, retires the ring's own
// windows when asked.
type windowOwner struct {
	retires atomic.Int64
	also    func()
}

func (o *windowOwner) RetireAll() {
	o.retires.Add(1)
	if o.also != nil {
		o.also()
	}
}

// TestWindowOwnerRetiresBeforeSleeping is the ring's half of retire rule 2:
// an end about to sleep has its owner retire first, and the lock is not
// held across the call.
func TestWindowOwnerRetiresBeforeSleeping(t *testing.T) {
	in, out := NewRing[int](4), NewRing[int](16)
	owner := &windowOwner{also: func() { out.CommitWindow(); in.ReleaseWindow() }}
	in.SetWindowOwner(false, owner)
	out.SetWindowOwner(true, owner)

	_ = pushW(out, 1, 8) // uncommitted output
	done := make(chan error)
	go func() {
		_, err := popW(in, 8) // sleeps: in is empty
		done <- err
	}()
	for in.ReaderStarvedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if owner.retires.Load() != 1 || pushes(out) != 1 {
		t.Fatalf("asleep on input after %d retires with %d of 1 outputs committed", owner.retires.Load(), pushes(out))
	}
	in.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("pop on closed = %v", err)
	}

	// Producer side: a full ring.
	full := NewRing[int](2)
	full.SetWindowOwner(true, owner)
	_ = full.Push(0, SigNone)
	_ = full.Push(1, SigNone)
	before := owner.retires.Load()
	go func() { done <- full.Push(2, SigNone) }()
	for full.WriterBlockedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if owner.retires.Load() != before+1 {
		t.Fatalf("producer asleep after %d retires, want 1", owner.retires.Load()-before)
	}
	_, _, _ = full.Pop()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWindowCommitWakesParkedConsumer: the scheduler hook wakes a parked
// end once, at the first publish (or release) after it armed — inside a
// window as well as at its commit — and not on the writes that follow.
func TestWindowCommitWakesParkedConsumer(t *testing.T) {
	r := NewRing[int](16)
	var notEmpty, notFull int
	r.SetWakeHook(WakeFunc(func(w Wake) {
		switch w {
		case WakeNotEmpty:
			notEmpty++
		case WakeNotFull:
			notFull++
		}
	}))
	_ = pushW(r, 0, 8)
	if notEmpty != 0 {
		t.Fatal("wake hook fired with no consumer parked")
	}
	if v, _, ok, _ := r.TryPop(); !ok || v != 0 {
		t.Fatalf("TryPop = %d, %v", v, ok)
	}
	if !r.Blocked(false) {
		t.Fatal("consumer not blocked on an empty ring")
	}
	_ = pushW(r, 1, 8)
	_ = pushW(r, 2, 8)
	if notEmpty != 1 {
		t.Fatalf("not-empty wakes = %d after two writes into the window, want 1", notEmpty)
	}
	r.CommitWindow()
	if notEmpty != 1 {
		t.Fatalf("not-empty wakes = %d after the commit, want 1", notEmpty)
	}
	// Fill the ring and park the producer; the release of a read window
	// wakes it once.
	for i := 3; i < 17; i++ {
		_ = r.Push(i, SigNone)
	}
	if !r.Blocked(true) {
		t.Fatal("producer not blocked on a full ring")
	}
	for i := 0; i < 3; i++ {
		_, _ = popW(r, 8)
	}
	if notFull != 0 {
		t.Fatal("not-full fired before the read window was released")
	}
	r.ReleaseWindow()
	if notFull != 1 {
		t.Fatalf("not-full wakes = %d after the release, want 1", notFull)
	}
}

// TestWindowCommitTakesNoLock: scalar pushes and pops through windows, and
// the commits and releases between them, go on while a third party holds
// the ring lock — for nothing, briefly, or for milliseconds at a time —
// and deliver every element in order.
func TestWindowCommitTakesNoLock(t *testing.T) {
	for _, hold := range []time.Duration{0, 20 * time.Microsecond, 5 * time.Millisecond} {
		r := NewRing[int](64)
		const n = 2000
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() { // a third party taking the lock, as the monitor does
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.mu.Lock()
				for t0 := time.Now(); time.Since(t0) < hold; {
				}
				r.mu.Unlock()
				time.Sleep(time.Microsecond)
			}
		}()
		go func() {
			for i := 0; i < n; i++ {
				if err := pushW(r, i, 8); err != nil {
					t.Error(err)
					return
				}
			}
			r.CommitWindow()
		}()
		for i := 0; i < n; i++ {
			v, err := popW(r, 8)
			if err != nil || v != i {
				t.Fatalf("hold %v: pop %d = %d, %v", hold, i, v, err)
			}
		}
		r.ReleaseWindow()
		close(stop)
		<-done
		if p, c := r.tel.Pushes.Load(), r.tel.Pops.Load(); p != n || c != n {
			t.Fatalf("hold %v: pushes %d pops %d, want %d", hold, p, c, n)
		}
	}
}
