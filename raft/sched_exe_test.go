package raft

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// collectIntKernel gathers int elements (the gateway Source test feeds
// ints, not the int64 the shared collect helper takes).
type collectIntKernel struct {
	KernelBase
	mu  sync.Mutex
	got []int
}

func newCollectInt() *collectIntKernel {
	k := &collectIntKernel{}
	AddInput[int](k, "in")
	return k
}

func (c *collectIntKernel) Run() Status {
	v, err := Pop[int](c.In("in"))
	if err != nil {
		return Stop
	}
	c.mu.Lock()
	c.got = append(c.got, v)
	c.mu.Unlock()
	return Proceed
}

func (c *collectIntKernel) values() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.got...)
}

// TestWorkStealEndToEnd runs a plain pipeline under the work-stealing
// scheduler and checks the full surface: results intact, the report names
// the scheduler, and the Sched section carries its counters.
func TestWorkStealEndToEnd(t *testing.T) {
	m := NewMap()
	dbl := newFlakyDouble() // no panics: just a doubling stage
	sink := newCollect()
	if _, err := m.Link(newGen(5000), dbl, Cap(16), MaxCap(16)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(dbl, sink, Cap(16), MaxCap(16)); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithWorkStealing(2), WithDynamicResize(false))
	if err != nil {
		t.Fatalf("Exe: %v", err)
	}
	got := sink.values()
	if len(got) != 5000 {
		t.Fatalf("collected %d values, want 5000", len(got))
	}
	for i, v := range got {
		if v != int64(2*i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, 2*i)
		}
	}
	if rep.Scheduler != "worksteal-2" {
		t.Fatalf("Report.Scheduler = %q, want worksteal-2", rep.Scheduler)
	}
	if rep.Sched == nil {
		t.Fatal("Report.Sched is nil under the work-stealing scheduler")
	}
	if rep.Sched.Workers != 2 {
		t.Fatalf("Report.Sched.Workers = %d, want 2", rep.Sched.Workers)
	}
}

// TestWorkStealSupervisionRestartBudget crosses the work-stealing
// scheduler with supervised recovery: transient panics must be retried and
// survive, and a permanently failing kernel must still exhaust its restart
// budget and escalate rather than being re-queued forever.
func TestWorkStealSupervisionRestartBudget(t *testing.T) {
	m := NewMap()
	flaky := newFlakyDouble(3, 11) // panics once each on inputs 3 and 11
	sink := newCollect()
	if _, err := m.Link(newGen(20), flaky); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(flaky, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(
		WithWorkStealing(2),
		WithSupervision(SupervisionPolicy{InitialBackoff: time.Microsecond}),
	)
	if err != nil {
		t.Fatalf("Exe: %v", err)
	}
	// Inputs 3 and 11 are consumed by the panicking invocations; the other
	// 18 must come through doubled, in order.
	if got := sink.values(); len(got) != 18 {
		t.Fatalf("collected %d values, want 18", len(got))
	}
	if len(rep.Recoveries) != 2 {
		t.Fatalf("Report.Recoveries has %d events, want 2", len(rep.Recoveries))
	}

	// Budget exhaustion must escalate under work-stealing too.
	m2 := NewMap()
	dead := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		panic("permanently broken")
	})
	if _, err := m2.Link(newGen(10), dead); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Link(dead, newCollect()); err != nil {
		t.Fatal(err)
	}
	_, err = m2.Exe(
		WithWorkStealing(2),
		WithSupervision(SupervisionPolicy{MaxRestarts: 2, InitialBackoff: time.Microsecond}),
	)
	if err == nil {
		t.Fatal("Exe succeeded despite a permanently failing kernel")
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("err %v does not wrap ErrRetriesExhausted", err)
	}
}

// TestCheckpointResumeUnderPooledSchedulers re-runs the cross-execution
// checkpoint resume scenario under the work-stealing scheduler, whose
// workers multiplex kernels: the persisted counter must survive an
// injected kill and carry across executions there too.
func TestCheckpointResumeUnderPooledSchedulers(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"worksteal", WithWorkStealing(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(kills ...uint64) uint64 {
				m := NewMap()
				flaky := newFlakyDouble()
				flaky.SetName("dbl")
				sink := newCollect()
				if _, err := m.Link(newGen(30), flaky); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Link(flaky, sink); err != nil {
					t.Fatal(err)
				}
				store, err := NewFileCheckpointStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				opts := []Option{
					tc.opt,
					WithSupervision(SupervisionPolicy{InitialBackoff: time.Microsecond}),
					WithCheckpointStore(store),
				}
				if len(kills) > 0 {
					inj := NewFaultInjector()
					for _, at := range kills {
						inj.KillKernel("dbl", at)
					}
					opts = append(opts, WithFaultInjection(inj))
				}
				if _, err := m.Exe(opts...); err != nil {
					t.Fatal(err)
				}
				return flaky.processed
			}
			if got := run(5); got != 30 {
				t.Fatalf("first run processed %d, want 30", got)
			}
			if got := run(); got != 60 {
				t.Fatalf("resumed run processed %d, want 60 (cross-execution resume)", got)
			}
		})
	}
}

// TestGatewaySourceDrainsOnWorkStealShard checks the gateway intake path
// under work-stealing: the Source's consumer lives on a shard like any
// other kernel, accepted batches reach the sink exactly once, and
// CloseIntake still drains buffered batches and propagates EOF so the run
// completes.
func TestGatewaySourceDrainsOnWorkStealShard(t *testing.T) {
	src := NewSource[int]("nums")
	sink := newCollectInt()
	m := NewMap()
	if _, err := m.Link(src, sink, Cap(8), MaxCap(8)); err != nil {
		t.Fatal(err)
	}
	ex, err := m.ExeAsync(WithWorkStealing(2), WithDynamicResize(false))
	if err != nil {
		t.Fatal(err)
	}

	const batches, per = 50, 20
	next := 0
	for b := 0; b < batches; b++ {
		vals := make([]int, per)
		for i := range vals {
			vals[i] = next
			next++
		}
		if err := src.inject("", vals, false); err != nil {
			t.Fatalf("inject batch %d: %v", b, err)
		}
	}
	src.CloseIntake()
	rep := waitRun(t, ex, 10*time.Second)
	got := sink.values()
	if len(got) != batches*per {
		t.Fatalf("sink saw %d values, want %d (drain must be lossless)", len(got), batches*per)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
	if rep.Sched == nil {
		t.Fatal("Report.Sched is nil under the work-stealing scheduler")
	}
}
