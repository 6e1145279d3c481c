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

func TestRingWakeHook(t *testing.T) {
	r := NewRing[int](2)
	var log wakeLog
	r.SetWakeHook(log.hook)

	// Empty -> non-empty fires exactly once; the second push stays quiet.
	mustPush(t, r, 1)
	mustPush(t, r, 2)
	if got := log.count(WakeNotEmpty); got != 1 {
		t.Fatalf("not-empty fires = %d, want 1", got)
	}

	// Full -> non-full fires on the first pop only.
	if _, _, err := r.Pop(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Pop(); err != nil {
		t.Fatal(err)
	}
	if got := log.count(WakeNotFull); got != 1 {
		t.Fatalf("not-full fires = %d, want 1", got)
	}

	// Refill after drain: a fresh empty -> non-empty edge.
	mustPush(t, r, 3)
	if got := log.count(WakeNotEmpty); got != 2 {
		t.Fatalf("not-empty fires after refill = %d, want 2", got)
	}

	r.Close()
	if got := log.count(WakeClosed); got != 1 {
		t.Fatalf("closed fires = %d, want 1", got)
	}

	// Detached hook must not fire.
	r2 := NewRing[int](2)
	r2.SetWakeHook(log.hook)
	r2.SetWakeHook(nil)
	mustPush(t, r2, 1)
	if got := log.count(WakeNotEmpty); got != 2 {
		t.Fatalf("detached hook fired (not-empty = %d)", got)
	}
}

func TestRingWakeHookBatchPaths(t *testing.T) {
	r := NewRing[int](4)
	var log wakeLog
	r.SetWakeHook(log.hook)

	if err := r.PushN([]int{1, 2, 3, 4}, nil); err != nil {
		t.Fatal(err)
	}
	if got := log.count(WakeNotEmpty); got != 1 {
		t.Fatalf("PushN not-empty fires = %d, want 1", got)
	}
	dst := make([]int, 4)
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
	r.SetWakeHook(log.hook)
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
