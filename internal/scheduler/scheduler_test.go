package scheduler

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"raftlib/internal/core"
)

// finishOnly is an actor Lifecycle that is always ready, yields on a Stall
// and runs f as its Finish.
type finishOnly func()

func (finishOnly) Ready() bool    { return true }
func (finishOnly) Await()         { runtime.Gosched() }
func (f finishOnly) Finish(error) { f() }

// lifeErr is finishOnly that also hands f the reason the actor ended.
type lifeErr func(error)

func (lifeErr) Ready() bool        { return true }
func (lifeErr) Await()             { runtime.Gosched() }
func (f lifeErr) Finish(err error) { f(err) }

// counterActor runs n steps then stops, tracking lifecycle calls.
func counterActor(name string, n int) (*core.Actor, *atomic.Int64, *atomic.Int64) {
	var steps, finished atomic.Int64
	remaining := int64(n)
	a := &core.Actor{
		Name: name,
		Step: func() core.Status {
			if remaining <= 0 {
				return core.Stop
			}
			remaining--
			steps.Add(1)
			return core.Proceed
		},
		Life: finishOnly(func() { finished.Add(1) }),
	}
	return a, &steps, &finished
}

func testSchedulerRunsAll(t *testing.T, s Scheduler) {
	t.Helper()
	var actors []*core.Actor
	var stepCounts []*atomic.Int64
	var finCounts []*atomic.Int64
	for i := 0; i < 5; i++ {
		a, st, fin := counterActor("k", 100)
		actors = append(actors, a)
		stepCounts = append(stepCounts, st)
		finCounts = append(finCounts, fin)
	}
	if err := run(s, actors); err != nil {
		t.Fatal(err)
	}
	for i := range actors {
		if got := stepCounts[i].Load(); got != 100 {
			t.Fatalf("actor %d ran %d steps, want 100", i, got)
		}
		if finCounts[i].Load() != 1 {
			t.Fatalf("actor %d finished %d times", i, finCounts[i].Load())
		}
	}
}

func TestGoroutineRunsAll(t *testing.T) { testSchedulerRunsAll(t, NewGoroutine()) }

func TestSchedulerNames(t *testing.T) {
	if NewGoroutine().Name() != "goroutine-per-kernel" {
		t.Fatal(NewGoroutine().Name())
	}
}

func testPanicRecovered(t *testing.T, s Scheduler) {
	t.Helper()
	bad := &core.Actor{
		Name: "bomb",
		Step: func() core.Status { panic("boom") },
	}
	good, steps, _ := counterActor("good", 50)
	err := run(s, []*core.Actor{bad, good})
	if err == nil || !strings.Contains(err.Error(), "bomb") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
	if steps.Load() != 50 {
		t.Fatalf("healthy actor ran %d steps", steps.Load())
	}
}

func TestGoroutinePanicRecovered(t *testing.T) { testPanicRecovered(t, NewGoroutine()) }

// run spawns actors and links as one batch into s and waits for them.
func run(s Scheduler, actors []*core.Actor, links ...*core.LinkInfo) error {
	if err := s.Spawn(actors, links); err != nil {
		return err
	}
	return s.Wait()
}

// runOrSpawn runs a under a fresh scheduler: in the first batch, or spawned
// mid-run by a host actor's first step. It returns Wait's error.
func runOrSpawn(t *testing.T, newS func() Scheduler, spawn bool, a *core.Actor) error {
	t.Helper()
	s := newS()
	if !spawn {
		return run(s, []*core.Actor{a})
	}
	host := &core.Actor{
		Name: "host",
		Step: func() core.Status {
			_ = s.Spawn([]*core.Actor{a}, nil) // its error is folded into Wait's
			return core.Stop
		},
		Life: finishOnly(func() {}),
	}
	return run(s, []*core.Actor{host})
}

func testInitError(t *testing.T, newS func() Scheduler) {
	for _, spawn := range []bool{false, true} {
		var ran, finished atomic.Bool
		var finishErr error
		a := &core.Actor{
			Name: "noinit",
			Init: func() error { return errors.New("init failed") },
			Step: func() core.Status { ran.Store(true); return core.Stop },
			Life: lifeErr(func(err error) { finishErr = err; finished.Store(true) }),
		}
		err := runOrSpawn(t, newS, spawn, a)
		if err == nil || !strings.Contains(err.Error(), "init failed") {
			t.Fatalf("spawn=%v: err = %v", spawn, err)
		}
		if ran.Load() {
			t.Fatalf("spawn=%v: Step ran after failed Init", spawn)
		}
		if !finished.Load() || !a.Finished.Load() {
			t.Fatalf("spawn=%v: Finish must still run for cleanup after failed Init", spawn)
		}
		if finishErr == nil || !strings.Contains(finishErr.Error(), "init failed") {
			t.Fatalf("spawn=%v: Finish got %v, want the Init error", spawn, finishErr)
		}
	}
}

func TestGoroutineInitError(t *testing.T) {
	testInitError(t, func() Scheduler { return NewGoroutine() })
}

func testVirtualActorSkipped(t *testing.T, newS func() Scheduler) {
	for _, spawn := range []bool{false, true} {
		var stepped, finished atomic.Bool
		a := &core.Actor{
			Name:    "virtual",
			Virtual: true,
			Step:    func() core.Status { stepped.Store(true); return core.Stop },
			Life:    finishOnly(func() { finished.Store(true) }),
		}
		if err := runOrSpawn(t, newS, spawn, a); err != nil {
			t.Fatalf("spawn=%v: %v", spawn, err)
		}
		if stepped.Load() {
			t.Fatalf("spawn=%v: virtual actor must never step", spawn)
		}
		if !finished.Load() || !a.Finished.Load() {
			t.Fatalf("spawn=%v: virtual actor must still finish (close outputs)", spawn)
		}
	}
}

func TestGoroutineVirtualActor(t *testing.T) {
	testVirtualActorSkipped(t, func() Scheduler { return NewGoroutine() })
}

func testStallThenFinish(t *testing.T, s Scheduler) {
	t.Helper()
	stalls := 3
	a := &core.Actor{
		Name: "staller",
		Step: func() core.Status {
			if stalls > 0 {
				stalls--
				return core.Stall
			}
			return core.Stop
		},
	}
	if err := run(s, []*core.Actor{a}); err != nil {
		t.Fatal(err)
	}
	if stalls != 0 {
		t.Fatalf("stalls remaining = %d", stalls)
	}
}

func TestGoroutineStall(t *testing.T) { testStallThenFinish(t, NewGoroutine()) }

func TestServiceTimeRecorded(t *testing.T) {
	a, _, _ := counterActor("timed", 10)
	if err := run(NewGoroutine(), []*core.Actor{a}); err != nil {
		t.Fatal(err)
	}
	if a.Service.Count() != 11 { // 10 Proceeds + final Stop
		t.Fatalf("service count = %d, want 11", a.Service.Count())
	}
	if a.Service.MeanNanos() < 0 {
		t.Fatal("negative mean service time")
	}
}

func TestEmptyActorList(t *testing.T) {
	if err := run(NewGoroutine(), nil); err != nil {
		t.Fatal(err)
	}
}

// testSpawnAfterWait: a finished run refuses a batch and starts none of it.
func testSpawnAfterWait(t *testing.T, s Scheduler) {
	a, steps, _ := counterActor("late", 1)
	if err := run(s, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Spawn([]*core.Actor{a}, nil); err == nil {
		t.Fatal("Spawn after Wait succeeded")
	}
	if steps.Load() != 0 || a.Finished.Load() {
		t.Fatal("a refused actor was started")
	}
}

func TestGoroutineSpawnAfterWait(t *testing.T) { testSpawnAfterWait(t, NewGoroutine()) }
