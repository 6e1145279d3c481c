package ringbuffer

import (
	"sync"
	"testing"
)

// wakeLog collects hook invocations (the ring calls the hook under
// its lock, so the log needs its own).
type wakeLog struct {
	mu sync.Mutex
	ws []Wake
}

func (l *wakeLog) hook(w Wake) {
	l.mu.Lock()
	l.ws = append(l.ws, w)
	l.mu.Unlock()
}

func (l *wakeLog) count(w Wake) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, x := range l.ws {
		if x == w {
			n++
		}
	}
	return n
}

// TestRingWakeHook: the hook wakes an end that found the ring empty or
// full — once, on the other end's next publish or release — and stays quiet
// for an end that never looked.
func TestRingWakeHook(t *testing.T) {
	r := NewRing[int](2)
	var log wakeLog
	r.SetWakeHook(WakeFunc(log.hook))

	// Nobody is waiting: pushes fire nothing.
	mustPush(t, r, 1)
	if got := log.count(WakeNotEmpty); got != 0 {
		t.Fatalf("not-empty fires with no consumer waiting = %d, want 0", got)
	}
	if _, _, err := r.Pop(); err != nil {
		t.Fatal(err)
	}
	// The consumer finds the ring empty: the next push fires once.
	if _, _, ok, _ := r.TryPop(); ok {
		t.Fatal("TryPop on an empty ring returned an element")
	}
	mustPush(t, r, 2)
	mustPush(t, r, 3)
	if got := log.count(WakeNotEmpty); got != 1 {
		t.Fatalf("not-empty fires = %d, want 1", got)
	}

	// The producer finds the ring full: the first pop fires once.
	if ok, _ := r.TryPush(4, SigNone); ok {
		t.Fatal("TryPush into a full ring succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := r.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.count(WakeNotFull); got != 1 {
		t.Fatalf("not-full fires = %d, want 1", got)
	}

	// Blocked arms the same way as a failed try.
	if !r.Blocked(false) {
		t.Fatal("Blocked(consumer) on an empty ring = false")
	}
	mustPush(t, r, 5)
	if got := log.count(WakeNotEmpty); got != 2 {
		t.Fatalf("not-empty fires after Blocked = %d, want 2", got)
	}

	r.Close()
	if got := log.count(WakeClosed); got != 1 {
		t.Fatalf("closed fires = %d, want 1", got)
	}

	// Detached hook must not fire.
	r2 := NewRing[int](2)
	r2.SetWakeHook(WakeFunc(log.hook))
	r2.SetWakeHook(nil)
	r2.TryPop()
	mustPush(t, r2, 1)
	if got := log.count(WakeNotEmpty); got != 2 {
		t.Fatalf("detached hook fired (not-empty = %d)", got)
	}
}

func TestRingWakeHookBatchPaths(t *testing.T) {
	r := NewRing[int](4)
	var log wakeLog
	r.SetWakeHook(WakeFunc(log.hook))

	dst := make([]int, 4)
	if n, err := r.DrainTo(dst, nil); n != 0 || err != nil {
		t.Fatalf("DrainTo on empty = %d, %v", n, err)
	}
	if err := r.PushN([]int{1, 2, 3, 4}, nil); err != nil {
		t.Fatal(err)
	}
	if got := log.count(WakeNotEmpty); got != 1 {
		t.Fatalf("PushN not-empty fires = %d, want 1", got)
	}
	if wv, err := r.TryAcquireWriteView(1); wv.Len() != 0 || err != nil {
		t.Fatalf("write view on a full ring = %d slots, %v", wv.Len(), err)
	}
	if _, err := r.DrainTo(dst, nil); err != nil {
		t.Fatal(err)
	}
	if got := log.count(WakeNotFull); got != 1 {
		t.Fatalf("DrainTo not-full fires = %d, want 1", got)
	}
}

func TestRingWakeHookGrowFiresNotFull(t *testing.T) {
	r := NewRing[int](2)
	var log wakeLog
	r.SetWakeHook(WakeFunc(log.hook))
	mustPush(t, r, 1)
	mustPush(t, r, 2)
	if err := r.Resize(8); err != nil {
		t.Fatal(err)
	}
	if got := log.count(WakeNotFull); got != 1 {
		t.Fatalf("grow not-full fires = %d, want 1", got)
	}
}

func mustPush(t *testing.T, r *Ring[int], v int) {
	t.Helper()
	if err := r.Push(v, SigNone); err != nil {
		t.Fatal(err)
	}
}

// TestRingWakePending: an armed end's wake reads as pending from the other
// end's publish or release until the hook has returned, and at no other
// time.
func TestRingWakePending(t *testing.T) {
	r := NewRing[int](1)
	var during []bool
	r.SetWakeHook(WakeFunc(func(w Wake) { during = append(during, r.WakePending(w == WakeNotFull)) }))
	if !r.Blocked(false) || r.WakePending(false) {
		t.Fatal("an armed consumer of an empty ring reads as woken")
	}
	mustPush(t, r, 1)
	if !r.Blocked(true) || r.WakePending(false) || r.WakePending(true) {
		t.Fatal("a wake reads as pending after its hook returned, or before the release")
	}
	if _, _, err := r.Pop(); err != nil {
		t.Fatal(err)
	}
	if r.WakePending(true) {
		t.Fatal("the producer's wake reads as pending after its hook returned")
	}
	if len(during) != 2 || !during[0] || !during[1] {
		t.Fatalf("pending inside the hooks = %v, want [true true]", during)
	}
}
