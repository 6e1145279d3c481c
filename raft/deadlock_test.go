package raft

import (
	"strings"
	"testing"
	"time"
)

// TestDeadlockDetected builds a classic broadcast deadlock: a tee copies
// every element to two branches with tiny pinned queues, but the joining
// kernel consumes the branches at different rates (two pops from "b" per
// pop from "a"). Branch a fills while the join waits on b; the tee blocks
// pushing to a; global freeze. Without detection Exe would hang forever.
// Under work stealing every kernel waits parked rather than in a ring, and
// the watch must still see the freeze.
func TestDeadlockDetected(t *testing.T) {
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) { testDeadlockDetected(t, sched.opts) })
	}
}

func testDeadlockDetected(t *testing.T, opts []Option) {
	m := NewMap()

	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		if err := Push(k.Out("0"), int64(1)); err != nil {
			return Stop
		}
		return Proceed // unbounded source
	})

	// Inline tee: copy input to both outputs.
	tee := &teeKernel{}
	AddInput[int64](tee, "in")
	AddOutput[int64](tee, "a")
	AddOutput[int64](tee, "b")

	join := &lopsidedJoin{}
	AddInput[int64](join, "a")
	AddInput[int64](join, "b")

	if _, err := m.Link(src, tee); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(tee, join, From("a"), To("a"), Cap(2), MaxCap(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(tee, join, From("b"), To("b"), Cap(2), MaxCap(2)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	var rep *Report
	go func() {
		var err error
		rep, err = m.Exe(append(opts,
			WithDynamicResize(false),
			WithDeadlockDetection(200*time.Millisecond),
		)...)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("deadlocked app returned without error")
		}
		if !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("err = %v, want deadlock diagnostic", err)
		}
		if !strings.Contains(err.Error(), "parked streams") {
			t.Fatalf("diagnostic missing stream details: %v", err)
		}
		foundEvent := false
		for _, e := range rep.MonitorEvents {
			if e.Kind == "deadlock" {
				foundEvent = true
			}
		}
		if !foundEvent {
			t.Fatalf("no deadlock event in report: %+v", rep.MonitorEvents)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("detector did not fire; application hung")
	}
}

type teeKernel struct{ KernelBase }

func (k *teeKernel) Run() Status {
	v, err := Pop[int64](k.In("in"))
	if err != nil {
		return Stop
	}
	if err := Push(k.Out("a"), v); err != nil {
		return Stop
	}
	if err := Push(k.Out("b"), v); err != nil {
		return Stop
	}
	return Proceed
}

type lopsidedJoin struct{ KernelBase }

func (k *lopsidedJoin) Run() Status {
	if _, err := Pop[int64](k.In("a")); err != nil {
		return Stop
	}
	// Consume b twice per a: rates diverge, branch a backs up.
	if _, err := Pop[int64](k.In("b")); err != nil {
		return Stop
	}
	if _, err := Pop[int64](k.In("b")); err != nil {
		return Stop
	}
	return Proceed
}

// TestNoFalsePositiveOnSlowKernel: a kernel computing for longer than the
// grace period (without touching its queues) must not be diagnosed as
// deadlock, because it is never parked — under work stealing too, where
// the kernels around it are.
func TestNoFalsePositiveOnSlowKernel(t *testing.T) {
	for _, sched := range bothSchedulers {
		t.Run(sched.name, func(t *testing.T) {
			m := NewMap()
			slow := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
				v, err := Pop[int64](k.In("0"))
				if err != nil {
					return Stop
				}
				time.Sleep(300 * time.Millisecond) // longer than the grace period
				if err := Push(k.Out("0"), v); err != nil {
					return Stop
				}
				return Proceed
			})
			sink := newCollect()
			if _, err := m.Link(newGen(3), slow); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Link(slow, sink); err != nil {
				t.Fatal(err)
			}
			_, err := m.Exe(append(sched.opts, WithDeadlockDetection(100*time.Millisecond))...)
			if err != nil {
				t.Fatalf("false positive: %v", err)
			}
			if len(sink.values()) != 3 {
				t.Fatalf("received %d", len(sink.values()))
			}
		})
	}
}

func TestDeadlockDetectionOffByDefault(t *testing.T) {
	cfg := defaultConfig()
	if cfg.deadlockGrace != 0 {
		t.Fatal("deadlock detection must be opt-in")
	}
	WithDeadlockDetection(0)(&cfg)
	if cfg.deadlockGrace != time.Second {
		t.Fatalf("zero grace must default to 1s, got %v", cfg.deadlockGrace)
	}
}
