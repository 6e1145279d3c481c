package resilience

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"raftlib/internal/core"
)

// mkActor builds an actor whose step panics on runs listed in panicAt and
// stops after total runs.
func mkActor(name string, total int, panicAt map[int]bool) (*core.Actor, *int) {
	runs := 0
	a := &core.Actor{Name: name}
	a.Step = func() core.Status {
		runs++
		if panicAt[runs] {
			panic(fmt.Sprintf("boom at run %d", runs))
		}
		if runs >= total {
			return core.Stop
		}
		return core.Proceed
	}
	return a, &runs
}

// drive runs the actor's (supervised) Runner to completion, with a safety cap.
func drive(t *testing.T, a *core.Actor) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if a.Runner.Run() == core.Stop {
			return
		}
	}
	t.Fatal("actor never stopped")
}

func TestSupervisorRestartsOnPanic(t *testing.T) {
	a, runs := mkActor("k", 6, map[int]bool{2: true, 4: true})
	log := &Log{}
	s := Supervise(a, Policy{MaxRestarts: 5, InitialBackoff: time.Microsecond}, Hooks{Log: log})
	drive(t, a)

	if *runs != 6 {
		t.Fatalf("runs = %d, want 6 (panicking runs retried)", *runs)
	}
	if s.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", s.Attempts())
	}
	if got := a.Restarts.Load(); got != 2 {
		t.Fatalf("actor.Restarts = %d, want 2", got)
	}
	evs := log.Events()
	if len(evs) != 2 {
		t.Fatalf("log has %d events, want 2: %+v", len(evs), evs)
	}
	for i, e := range evs {
		if !e.Recovered || e.Kernel != "k" || e.Attempt != i+1 {
			t.Errorf("event %d = %+v", i, e)
		}
		if e.Cause == "" || e.Recovery <= 0 {
			t.Errorf("event %d missing cause/recovery: %+v", i, e)
		}
	}
}

func TestSupervisorExhaustionEscalates(t *testing.T) {
	a := &core.Actor{Name: "dies", Step: func() core.Status { panic("always") }}
	var escalated error
	log := &Log{}
	Supervise(a, Policy{MaxRestarts: 2, InitialBackoff: time.Microsecond}, Hooks{
		OnExhausted: func(err error) { escalated = err },
		Log:         log,
	})

	// 3 invocations: two absorbed restarts, third exhausts the budget.
	for i := 0; i < 2; i++ {
		if st := a.Runner.Run(); st != core.Proceed {
			t.Fatalf("restart %d: status %v, want Proceed", i+1, st)
		}
	}
	if st := a.Runner.Run(); st != core.Stop {
		t.Fatalf("exhausted step: status %v, want Stop", st)
	}
	if escalated == nil {
		t.Fatal("OnExhausted not called")
	}
	if !errors.Is(escalated, ErrRetriesExhausted) {
		t.Fatalf("escalated error %v does not wrap ErrRetriesExhausted", escalated)
	}
	if !errors.Is(escalated, core.ErrKernelPanicked) {
		t.Fatalf("escalated error %v does not wrap ErrKernelPanicked", escalated)
	}
	evs := log.Events()
	if len(evs) != 3 || evs[2].Recovered {
		t.Fatalf("log = %+v, want 2 recovered + 1 terminal", evs)
	}
	if a.Restarts.Load() != 2 {
		t.Fatalf("Restarts = %d, want 2", a.Restarts.Load())
	}
}

func TestSupervisorUnlimitedRestarts(t *testing.T) {
	fails := 0
	a := &core.Actor{Name: "flaky"}
	a.Step = func() core.Status {
		if fails < 10 {
			fails++
			panic("flaky")
		}
		return core.Stop
	}
	Supervise(a, Policy{MaxRestarts: -1, InitialBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}, Hooks{})
	drive(t, a)
	if fails != 10 {
		t.Fatalf("fails = %d, want 10", fails)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	a := &core.Actor{Name: "b", Step: func() core.Status { return core.Stop }}
	s := Supervise(a, Policy{
		MaxRestarts:    -1,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     8 * time.Millisecond,
		Multiplier:     2,
		Jitter:         -1, // sentinel: withDefaults resets to 0.1; use explicit 0 below
	}, Hooks{})
	s.p.Jitter = 0 // deterministic for the assertion

	wants := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond,
	}
	for i, want := range wants {
		if got := s.backoff(i + 1); got != want {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, want)
		}
	}

	// With jitter the backoff stays within [base, cap].
	s.p.Jitter = 0.5
	for i := 1; i <= 6; i++ {
		got := s.backoff(i)
		if got < time.Millisecond || got > 8*time.Millisecond {
			t.Errorf("jittered backoff(%d) = %v outside [1ms, 8ms]", i, got)
		}
	}
}

func TestCheckpointAndRestoreOnRestart(t *testing.T) {
	store := NewMemStore()
	const name = "acc"

	sum, committed := 0, 0
	runs := 0
	a := &core.Actor{Name: name}
	a.Step = func() core.Status {
		runs++
		if runs == 4 {
			panic("mid-stream crash")
		}
		sum += runs
		if sum >= 15 {
			return core.Stop
		}
		return core.Proceed
	}
	Supervise(a, Policy{InitialBackoff: time.Microsecond}, Hooks{
		Checkpoint: func() error {
			committed = sum
			return store.Save(name, []byte{byte(sum)})
		},
		Restore: func() error {
			snap, ok, err := store.Load(name)
			if err != nil || !ok {
				return fmt.Errorf("load: ok=%v err=%v", ok, err)
			}
			sum = int(snap[0])
			return nil
		},
	})
	drive(t, a)

	// Runs 1-3 accumulate 6, checkpointed each run. Run 4 panics before
	// mutating; restore rewinds sum to the last committed value (6), then
	// runs 5-6 continue: 6+5+6 = 17 >= 15 stops.
	if sum != 17 {
		t.Fatalf("sum = %d, want 17", sum)
	}
	if committed != 17 {
		t.Fatalf("final checkpoint = %d, want 17 (Stop must checkpoint)", committed)
	}
}

func TestCheckpointEveryN(t *testing.T) {
	ckpts := 0
	runs := 0
	a := &core.Actor{Name: "n"}
	a.Step = func() core.Status {
		runs++
		if runs >= 10 {
			return core.Stop
		}
		return core.Proceed
	}
	Supervise(a, Policy{}, Hooks{
		CheckpointEvery: 4,
		Checkpoint:      func() error { ckpts++; return nil },
	})
	drive(t, a)
	// Runs 4 and 8 hit the period; run 10 (Stop) forces a final snapshot.
	if ckpts != 3 {
		t.Fatalf("checkpoints = %d, want 3", ckpts)
	}
}

func TestRestoreFailureConsumesAttempts(t *testing.T) {
	a := &core.Actor{Name: "r", Step: func() core.Status { panic("die") }}
	var escalated error
	Supervise(a, Policy{MaxRestarts: 3, InitialBackoff: time.Microsecond}, Hooks{
		Restore:     func() error { return errors.New("corrupt snapshot") },
		OnExhausted: func(err error) { escalated = err },
	})
	if st := a.Runner.Run(); st != core.Stop {
		t.Fatalf("status %v, want Stop (restore failures burn the budget)", st)
	}
	if !errors.Is(escalated, ErrRetriesExhausted) || !errors.Is(escalated, ErrCheckpointFailed) {
		t.Fatalf("escalated = %v, want ErrRetriesExhausted wrapping ErrCheckpointFailed", escalated)
	}
}

func TestMemStoreRoundtrip(t *testing.T) {
	s := NewMemStore()
	if _, ok, err := s.Load("missing"); ok || err != nil {
		t.Fatalf("Load(missing) = ok=%v err=%v", ok, err)
	}
	if err := s.Save("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := s.Load("k")
	if err != nil || !ok || string(snap) != "v2" {
		t.Fatalf("Load(k) = %q ok=%v err=%v", snap, ok, err)
	}
	// Returned slice is a copy: mutating it must not corrupt the store.
	snap[0] = 'X'
	snap2, _, _ := s.Load("k")
	if string(snap2) != "v2" {
		t.Fatalf("store corrupted by caller mutation: %q", snap2)
	}
}

func TestFileStoreRoundtripAndResume(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("missing"); ok || err != nil {
		t.Fatalf("Load(missing) = ok=%v err=%v", ok, err)
	}
	// Decorated replica names must map to distinct, valid files.
	if err := s.Save("search[horspool]#1[2]", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("search[horspool]#1[3]", []byte("beta")); err != nil {
		t.Fatal(err)
	}

	// A second store over the same directory (a new process) sees the data.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok, err := s2.Load("search[horspool]#1[2]")
	if err != nil || !ok || string(snap) != "alpha" {
		t.Fatalf("resume Load = %q ok=%v err=%v", snap, ok, err)
	}
	snap, ok, err = s2.Load("search[horspool]#1[3]")
	if err != nil || !ok || string(snap) != "beta" {
		t.Fatalf("resume Load = %q ok=%v err=%v", snap, ok, err)
	}
}

// windows counts retires of a supervised kernel's port windows and records
// how many had happened when each checkpoint or restore ran.
type windows struct {
	retires  int
	atCkpt   []int
	atRestor []int
}

func (w *windows) RetireAll() { w.retires++ }

// TestSupervisorRetiresWindowsAroundRestartAndCheckpoint is the supervisor's
// part of retire rule 5: a kernel that died retires its port windows before
// it sleeps through the back-off (its neighbours are owed what they hold),
// and a snapshot is taken only of a stream position the neighbours can see.
func TestSupervisorRetiresWindowsAroundRestartAndCheckpoint(t *testing.T) {
	a, _ := mkActor("k", 6, map[int]bool{3: true})
	w := &windows{}
	a.Windows = w
	Supervise(a, Policy{MaxRestarts: 2, InitialBackoff: time.Microsecond}, Hooks{
		Checkpoint: func() error { w.atCkpt = append(w.atCkpt, w.retires); return nil },
		Restore:    func() error { w.atRestor = append(w.atRestor, w.retires); return nil },
	})
	drive(t, a)
	// Five successful invocations checkpoint (runs 1, 2, 4, 5 and the Stop at
	// 6), each after its own retire; the failed run 3 retires before the
	// back-off and the restore.
	if want := []int{1, 2, 4, 5, 6}; fmt.Sprint(w.atCkpt) != fmt.Sprint(want) {
		t.Fatalf("retires seen by the checkpoints = %v, want %v", w.atCkpt, want)
	}
	if want := []int{3}; fmt.Sprint(w.atRestor) != fmt.Sprint(want) {
		t.Fatalf("retires seen by the restore = %v, want %v", w.atRestor, want)
	}
}
