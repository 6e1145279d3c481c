package raft

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"raftlib/internal/mapper"
)

// genKernel streams the integers [0, n) out of port "out".
type genKernel struct {
	KernelBase
	next, n int64
}

func newGen(n int64) *genKernel {
	k := &genKernel{n: n}
	AddOutput[int64](k, "out")
	return k
}

func (g *genKernel) Run() Status {
	if g.next >= g.n {
		return Stop
	}
	sig := SigNone
	if g.next == g.n-1 {
		sig = SigEOF
	}
	if err := PushSig(g.Out("out"), g.next, sig); err != nil {
		return Stop
	}
	g.next++
	return Proceed
}

// sumKernel is the paper's Fig. 2 kernel: c = a + b.
type sumKernel struct {
	KernelBase
}

func newSum() *sumKernel {
	k := &sumKernel{}
	AddInput[int64](k, "input_a")
	AddInput[int64](k, "input_b")
	AddOutput[int64](k, "sum")
	return k
}

func (s *sumKernel) Run() Status {
	a, err := Pop[int64](s.In("input_a"))
	if err != nil {
		return Stop
	}
	b, err := Pop[int64](s.In("input_b"))
	if err != nil {
		return Stop
	}
	if err := Push(s.Out("sum"), a+b); err != nil {
		return Stop
	}
	return Proceed
}

// collectKernel gathers everything from port "in".
type collectKernel struct {
	KernelBase
	mu  sync.Mutex
	got []int64
}

func newCollect() *collectKernel {
	k := &collectKernel{}
	AddInput[int64](k, "in")
	return k
}

func (c *collectKernel) Run() Status {
	v, err := Pop[int64](c.In("in"))
	if err != nil {
		return Stop
	}
	c.mu.Lock()
	c.got = append(c.got, v)
	c.mu.Unlock()
	return Proceed
}

func (c *collectKernel) values() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.got...)
}

// workKernel doubles each element; cloneable for replication tests.
type workKernel struct {
	KernelBase
}

func newWork() *workKernel {
	k := &workKernel{}
	AddInput[int64](k, "in")
	AddOutput[int64](k, "out")
	return k
}

func (w *workKernel) Run() Status {
	v, err := Pop[int64](w.In("in"))
	if err != nil {
		return Stop
	}
	if err := Push(w.Out("out"), 2*v); err != nil {
		return Stop
	}
	return Proceed
}

func (w *workKernel) Clone() Kernel { return newWork() }

func runSumApp(t *testing.T, n int64, opts ...Option) (*collectKernel, *Report) {
	t.Helper()
	m := NewMap()
	sum := newSum()
	sink := newCollect()
	if _, err := m.Link(newGen(n), sum, To("input_a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(newGen(n), sum, To("input_b")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(sum, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(opts...)
	if err != nil {
		t.Fatalf("Exe: %v", err)
	}
	return sink, rep
}

func TestSumApplication(t *testing.T) {
	const n = 10_000
	sink, rep := runSumApp(t, n)
	got := sink.values()
	if len(got) != n {
		t.Fatalf("received %d sums, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(2*i) {
			t.Fatalf("sum[%d] = %d, want %d", i, v, 2*i)
		}
	}
	if rep.Elapsed <= 0 {
		t.Fatal("report has no elapsed time")
	}
	if len(rep.Kernels) != 4 || len(rep.Links) != 3 {
		t.Fatalf("report: %d kernels, %d links; want 4, 3", len(rep.Kernels), len(rep.Links))
	}
}

func TestSumApplicationWithoutMonitor(t *testing.T) {
	sink, rep := runSumApp(t, 2_000, WithoutMonitor())
	if len(sink.values()) != 2_000 {
		t.Fatalf("received %d sums", len(sink.values()))
	}
	if rep.MonitorTicks != 0 {
		t.Fatalf("monitor ran %d ticks with WithoutMonitor", rep.MonitorTicks)
	}
}

// TestSmallQueuesForceDynamicResize: the monitor grows 1-element queues
// under load. The source keeps elements flowing — at least 20 000, then
// until an observer has seen a grown queue (or a cap) — so the monitor
// meets the load at any GOMAXPROCS.
func TestSmallQueuesForceDynamicResize(t *testing.T) {
	seen := make(chan struct{})
	obs := func(ls LiveStats) {
		for _, l := range ls.Links {
			if l.FinalCap > 1 {
				select {
				case <-seen:
				default:
					close(seen)
				}
			}
		}
	}
	src, sent := sourceUntil(20_000, seen)
	m := NewMap()
	sink := newCollect()
	work := newWork()
	if _, err := m.Link(src, work, Cap(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink, Cap(1)); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithDynamicResize(true), WithObserver(time.Millisecond, obs))
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(len(sink.values())); got != *sent {
		t.Fatalf("received %d of %d", got, *sent)
	}
	var grows uint64
	for _, l := range rep.Links {
		grows += l.Grows
	}
	if grows == 0 {
		t.Fatal("expected the monitor to grow a 1-element queue under load")
	}
}

func TestAutoReplication(t *testing.T) {
	const n = 50_000
	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(n), work, AsOutOfOrder()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithAutoReplicate(4))
	if err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	// Out-of-order is allowed; verify multiset instead of order.
	seen := make(map[int64]int, n)
	for _, v := range got {
		seen[v]++
	}
	for i := int64(0); i < n; i++ {
		if seen[2*i] != 1 {
			t.Fatalf("value %d appeared %d times", 2*i, seen[2*i])
		}
	}
	if len(rep.Groups) != 1 || rep.Groups[0].MaxReplicas != 4 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	// 1 source + split + 4 replicas + merge + sink = 8 kernels.
	if len(rep.Kernels) != 8 {
		t.Fatalf("kernel count = %d, want 8", len(rep.Kernels))
	}
	// All replicas should have done some work at full static width.
	replicaRuns := 0
	for _, k := range rep.Kernels {
		if k.Name == "workKernel#1" || k.Name == "workKernel#1[1]" ||
			k.Name == "workKernel#1[2]" || k.Name == "workKernel#1[3]" {
			if k.Runs > 0 {
				replicaRuns++
			}
		}
	}
	if replicaRuns < 2 {
		t.Fatalf("only %d replicas ran; expected parallel execution", replicaRuns)
	}
}

func TestAutoReplicationLeastUtilized(t *testing.T) {
	const n = 20_000
	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(n), work, AsOutOfOrder()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(WithAutoReplicate(3), WithSplitPolicy(LeastUtilized)); err != nil {
		t.Fatal(err)
	}
	if len(sink.values()) != n {
		t.Fatalf("received %d, want %d", len(sink.values()), n)
	}
}

func TestAutoScaleStartsNarrowAndWidens(t *testing.T) {
	const n = 300_000
	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(n), work, AsOutOfOrder(), Cap(8), MaxCap(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithAutoReplicate(4), WithAutoScale(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.values()) != n {
		t.Fatalf("received %d, want %d", len(sink.values()), n)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	// The group starts at 1; under a full 8-slot input queue the monitor
	// should have widened it at least once. The width at the end is no
	// witness: the monitor narrows the group again as the stream drains.
	for _, e := range rep.MonitorEvents {
		if e.Kind == "scale-up" && e.Target == rep.Groups[0].Name {
			return
		}
	}
	t.Fatalf("no scale-up of group %q among monitor events %+v", rep.Groups[0].Name, rep.MonitorEvents)
}

// TestAutoScaleBuildsOnlyLiveReplicas: under AutoScale a group is built at
// width 1 whatever its ceiling — one replica, not 64 idle clones — and a
// pipeline that never backs up never widens it: the run registers exactly
// source, split, replica, merge and sink.
func TestAutoScaleBuildsOnlyLiveReplicas(t *testing.T) {
	const n = 500
	sink := newPacedCollect(0)
	var sent int64
	// The source hands over one element at a time — it stalls until the
	// sink holds the previous one — so the group's input never fills.
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		if sent == n {
			return Stop
		}
		if int64(sink.count()) < sent {
			return Stall
		}
		if err := Push(k.Out("0"), sent); err != nil {
			return Stop
		}
		sent++
		return Proceed
	})
	m := NewMap()
	m.MustLink(src, newWork(), AsOutOfOrder())
	m.MustLink(m.Kernels()[1], sink)
	rep, err := m.Exe(WithAutoReplicate(64), WithAutoScale(true))
	if err != nil {
		t.Fatal(err)
	}
	checkDoubledMultiset(t, sink.values(), n)
	if len(rep.Kernels) != 5 {
		var names []string
		for _, k := range rep.Kernels {
			names = append(names, k.Name)
		}
		t.Fatalf("registered %d kernels %v, want 5", len(rep.Kernels), names)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].MaxReplicas != 64 || rep.Groups[0].ActiveAtEnd != 1 {
		t.Fatalf("groups = %+v", rep.Groups)
	}
}

// TestScaleStepsAreCommits drives an AutoScale group's width by hand,
// under each scheduler, through the steps the monitor takes: scale-ups to
// the ceiling, then two scale-downs. Each is one rewrite commit that ends
// within A18's 100 ms pause bar, a step past either end is refused, the
// retired replicas stay in the report with a departure time, and every
// element arrives exactly once.
func TestScaleStepsAreCommits(t *testing.T) {
	for _, sc := range []struct {
		name string
		opts []Option
	}{
		{"goroutine", nil},
		{"worksteal", []Option{WithWorkStealing(2)}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			const n = 40_000
			m := NewMap()
			sink := newPacedCollect(time.Millisecond)
			m.MustLink(newGen(n), newWork(), AsOutOfOrder())
			m.MustLink(m.Kernels()[1], sink)
			ex, err := m.ExeAsync(append(sc.opts, WithAutoReplicate(4), WithAutoScale(true), WithoutMonitor())...)
			if err != nil {
				t.Fatal(err)
			}
			g := ex.scalers[0]
			waitFor(t, "traffic", func() bool { return sink.count() >= 300 })
			step := func(delta, want int) {
				t.Helper()
				t0 := time.Now()
				if err := g.step(delta); err != nil {
					t.Fatalf("step %+d to %d: %v", delta, want, err)
				}
				d := time.Since(t0)
				t.Logf("step %+d to width %d committed in %v", delta, want, d.Round(time.Microsecond))
				if d > 100*time.Millisecond {
					t.Errorf("step %+d to %d took %v, over the 100ms pause bar", delta, want, d)
				}
				if got := g.Active(); got != want {
					t.Fatalf("width %d after a step to %d", got, want)
				}
			}
			step(+1, 2)
			step(+1, 3)
			step(+1, 4)
			if err := g.step(+1); err == nil {
				t.Fatal("a scale-up past the ceiling committed")
			}
			step(-1, 3)
			step(-1, 2)
			rep, err := ex.Wait()
			if err != nil {
				t.Fatal(err)
			}
			checkDoubledMultiset(t, sink.values(), n)
			var left []string
			for _, k := range rep.Kernels {
				if k.LeftAt > 0 {
					left = append(left, k.Name)
				}
			}
			if len(rep.Kernels) != 8 || len(left) != 2 || left[0] != "workKernel#1[2]" || left[1] != "workKernel#1[3]" {
				t.Fatalf("%d kernels, departed %v: want 8 with the two newest replicas departed", len(rep.Kernels), left)
			}
			if rep.Groups[0].ActiveAtEnd != 2 {
				t.Fatalf("width at the end %d, want 2", rep.Groups[0].ActiveAtEnd)
			}
			// A replica that joins must be woken by its streams, not found
			// parked by the watchdog: with its wake hooks wired before it
			// was a task, this run took over 1000 rescues.
			if rep.Sched != nil {
				t.Logf("work-stealing rescues: %d", rep.Sched.Rescues)
				if rep.Sched.Rescues > 100 {
					t.Fatalf("%d watchdog rescues: a spliced replica is not woken by its streams", rep.Sched.Rescues)
				}
			}
		})
	}
}

// TestScaleUpRacingEndOfStreamRollsBack: a scale-up that reaches the seal
// after the group's split has finished cannot commit. The step says so,
// rolls back — its replica departs at once — records no event, and no
// element is lost.
func TestScaleUpRacingEndOfStreamRollsBack(t *testing.T) {
	const n = 100 // fits in the group's streams while the sink is held
	release := make(chan struct{})
	sink := newCollect()
	hold := NewLambda[int64](1, 1, func(k *LambdaKernel) Status {
		<-release
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		if err := Push(k.Out("0"), v); err != nil {
			return Stop
		}
		return Proceed
	})
	m := NewMap()
	m.MustLink(newGen(n), newWork(), AsOutOfOrder())
	m.MustLink(m.Kernels()[1], hold)
	m.MustLink(hold, sink)
	ex, err := m.ExeAsync(WithAutoReplicate(4), WithAutoScale(true), WithoutMonitor())
	if err != nil {
		t.Fatal(err)
	}
	g := ex.scalers[0]
	split := ex.reg.liveKernel(g.split.kernelBase()).a
	waitFor(t, "the split to finish", split.Finished.Load)

	committed := 0
	g.Step(+1, func(from, to int) { committed++ })
	ex.steps.Wait()
	if committed != 0 {
		t.Fatal("a scale-up after the split finished recorded its event")
	}
	if err := g.step(+1); err == nil || !strings.Contains(err.Error(), "finished before the seal") {
		t.Fatalf("scale-up after the split finished: %v", err)
	}
	close(release)
	rep, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkDoubledMultiset(t, sink.values(), n)
	for _, k := range rep.Kernels {
		if strings.HasPrefix(k.Name, "workKernel#1[") && (k.LeftAt == 0 || k.Runs > 1) {
			t.Fatalf("rolled-back replica %s: left at %v after %d runs", k.Name, k.LeftAt, k.Runs)
		}
	}
	if rep.Groups[0].ActiveAtEnd != 1 {
		t.Fatalf("width at the end %d, want 1", rep.Groups[0].ActiveAtEnd)
	}
}

func TestLinkErrors(t *testing.T) {
	m := NewMap()
	sum := newSum()
	if _, err := m.Link(newGen(1), sum); err == nil {
		t.Fatal("ambiguous destination port must error")
	}
	if _, err := m.Link(newGen(1), sum, To("nope")); err == nil {
		t.Fatal("unknown port must error")
	}
	if _, err := m.Link(nil, sum); err == nil {
		t.Fatal("nil kernel must error")
	}
	// Type mismatch.
	f := NewLambda[float64](0, 1, func(k *LambdaKernel) Status { return Stop })
	if _, err := m.Link(f, sum, To("input_a")); err == nil {
		t.Fatal("type mismatch must error")
	}
	// Double-binding a port.
	g1 := newGen(1)
	c1 := newCollect()
	if _, err := m.Link(g1, c1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(g1, newCollect()); err == nil {
		t.Fatal("relinking a bound port must error")
	}
}

func TestExeRejectsUnboundPorts(t *testing.T) {
	m := NewMap()
	sum := newSum() // input_b never linked
	sink := newCollect()
	if _, err := m.Link(newGen(10), sum, To("input_a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(sum, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err == nil {
		t.Fatal("Exe must reject a topology with unbound ports")
	}
}

func TestExeRunsIndependentPipelines(t *testing.T) {
	// Two disjoint pipelines in one map are a legitimate program (e.g. the
	// producer half of a distributed app holds one pipeline per bridge).
	m := NewMap()
	c1, c2 := newCollect(), newCollect()
	if _, err := m.Link(newGen(10), c1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(newGen(20), c2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if len(c1.values()) != 10 || len(c2.values()) != 20 {
		t.Fatalf("pipelines received %d and %d values", len(c1.values()), len(c2.values()))
	}
}

func TestExeRejectsEmptyMap(t *testing.T) {
	if _, err := NewMap().Exe(); err == nil {
		t.Fatal("Exe on empty map must error")
	}
}

func TestKernelPanicIsReportedNotFatal(t *testing.T) {
	m := NewMap()
	bad := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		panic("kernel bug")
	})
	if _, err := m.Link(newGen(100), bad); err != nil {
		t.Fatal(err)
	}
	sink := newCollect()
	if _, err := m.Link(bad, sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe()
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestLambdaKernels(t *testing.T) {
	const n = 1000
	m := NewMap()
	i := int64(0)
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		if i >= n {
			return Stop
		}
		if err := Push(k.Out("0"), i); err != nil {
			return Stop
		}
		i++
		return Proceed
	})
	sink := newCollect()
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if got := sink.values(); len(got) != n || got[0] != 0 || got[n-1] != n-1 {
		t.Fatalf("lambda source produced %d values", len(got))
	}
}

func TestLambdaCloneableReplicates(t *testing.T) {
	const n = 10_000
	m := NewMap()
	worker := NewLambdaCloneable(func() *LambdaKernel {
		return NewLambda[int64](1, 1, func(k *LambdaKernel) Status {
			v, err := Pop[int64](k.In("0"))
			if err != nil {
				return Stop
			}
			if err := Push(k.Out("0"), v+1); err != nil {
				return Stop
			}
			return Proceed
		})
	})
	sink := newCollect()
	if _, err := m.Link(newGen(n), worker, AsOutOfOrder()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(worker, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithAutoReplicate(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.values()) != n {
		t.Fatalf("received %d, want %d", len(sink.values()), n)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("expected a replicated group, got %+v", rep.Groups)
	}
}

// TestKernelGroupSwapsToFaster drives the group's measure-then-exploit
// policy with a counting clock: each member advances it by its own cost per
// invocation, so the election depends on the work counted, not on how the
// host schedules the run.
func TestKernelGroupSwapsToFaster(t *testing.T) {
	const n = 30_000
	var now int64 // read and advanced on the group's goroutine only
	mkMember := func(cost int64, label string) Kernel {
		k := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
			v, err := Pop[int64](k.In("0"))
			if err != nil {
				return Stop
			}
			now += cost
			if err := Push(k.Out("0"), v); err != nil {
				return Stop
			}
			return Proceed
		})
		k.SetName(label)
		return k
	}
	grp, err := NewKernelGroup(mkMember(100, "slow"), mkMember(1, "fast"))
	if err != nil {
		t.Fatal(err)
	}
	grp.clock = func() int64 { return now }
	m := NewMap()
	sink := newCollect()
	if _, err := m.Link(newGen(n), grp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(grp, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if len(sink.values()) != n {
		t.Fatalf("received %d, want %d", len(sink.values()), n)
	}
	if grp.Active() != "fast" || grp.Swaps() != 1 {
		t.Fatalf("group settled on %q after %d swaps, want fast after 1", grp.Active(), grp.Swaps())
	}
}

func TestKernelGroupFixed(t *testing.T) {
	mk := func(label string) Kernel {
		k := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
			v, err := Pop[int64](k.In("0"))
			if err != nil {
				return Stop
			}
			if err := Push(k.Out("0"), v); err != nil {
				return Stop
			}
			return Proceed
		})
		k.SetName(label)
		return k
	}
	grp, err := NewKernelGroup(mk("a"), mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := grp.SetFixed("b"); err != nil {
		t.Fatal(err)
	}
	if err := grp.SetFixed("zzz"); err == nil {
		t.Fatal("unknown member must error")
	}
	m := NewMap()
	sink := newCollect()
	if _, err := m.Link(newGen(500), grp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(grp, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if grp.Active() != "b" || grp.Swaps() != 0 {
		t.Fatalf("fixed group moved: active=%q swaps=%d", grp.Active(), grp.Swaps())
	}
}

func TestKernelGroupSignatureMismatch(t *testing.T) {
	a := NewLambda[int64](1, 1, func(k *LambdaKernel) Status { return Stop })
	b := NewLambda[float64](1, 1, func(k *LambdaKernel) Status { return Stop })
	if _, err := NewKernelGroup(a, b); err == nil {
		t.Fatal("mismatched member signatures must error")
	}
	if _, err := NewKernelGroup(); err == nil {
		t.Fatal("empty group must error")
	}
}

func TestPeekRangeSlidingWindow(t *testing.T) {
	const n = 256
	m := NewMap()
	// Sliding-window averager: window of 4, slide by 1.
	avg := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		w, err := PeekRange[int64](k.In("0"), 4)
		if err != nil {
			if len(w) > 0 {
				Recycle[int64](k.In("0"), len(w))
			}
			return Stop
		}
		sum := w[0] + w[1] + w[2] + w[3]
		if err := Push(k.Out("0"), sum/4); err != nil {
			return Stop
		}
		Recycle[int64](k.In("0"), 1)
		return Proceed
	})
	sink := newCollect()
	if _, err := m.Link(newGen(n), avg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(avg, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != n-3 {
		t.Fatalf("window outputs = %d, want %d", len(got), n-3)
	}
	for i, v := range got {
		want := int64((i + i + 3) / 2) // mean of i..i+3 floored
		if v != want {
			t.Fatalf("avg[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestSignalDeliveredWithElement(t *testing.T) {
	m := NewMap()
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		if err := PushSig(k.Out("0"), int64(42), SigUser); err != nil {
			return Stop
		}
		return Stop
	})
	var gotSig Signal
	var gotVal int64
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		v, s, err := PopSig[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		gotVal, gotSig = v, s
		return Proceed
	})
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if gotVal != 42 || gotSig != SigUser {
		t.Fatalf("received (%d, %v), want (42, user)", gotVal, gotSig)
	}
}

func TestAllocateSend(t *testing.T) {
	m := NewMap()
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		a := Allocate[int64](k.Out("0"))
		a.Val = 7
		a.Sig = SigEOF
		if err := a.Send(); err != nil {
			return Stop
		}
		if err := a.Send(); err != nil { // second send must be a no-op
			return Stop
		}
		return Stop
	})
	sink := newCollect()
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if got := sink.values(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("allocate/send produced %v", got)
	}
}

func TestReportLinksAccounting(t *testing.T) {
	sink, rep := runSumApp(t, 1_000)
	_ = sink
	for _, l := range rep.Links {
		if l.Pushes != 1_000 || l.Pops != 1_000 {
			t.Fatalf("link %s pushes=%d pops=%d, want 1000/1000", l.Name, l.Pushes, l.Pops)
		}
	}
}

func TestManualSplitMerge(t *testing.T) {
	const n = 9_000
	m := NewMap()
	split := NewSplit[int64](3, RoundRobin)
	merge := NewMerge[int64](3)
	if _, err := m.Link(newGen(n), split, To("in")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w := newWork()
		if _, err := m.Link(split, w, From(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Link(w, merge, To(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sink := newCollect()
	if _, err := m.Link(merge, sink, From("out")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	got := sink.values()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	var total int64
	for _, v := range got {
		total += v
	}
	want := int64(n) * int64(n-1) // sum of 2i for i in [0,n)
	if total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
}

func TestMapperAssignmentInReport(t *testing.T) {
	_, rep := runSumApp(t, 100)
	places := map[int]bool{}
	for _, k := range rep.Kernels {
		if k.Place < 0 {
			t.Fatalf("kernel %s unmapped", k.Name)
		}
		places[k.Place] = true
	}
	if len(places) == 0 {
		t.Fatal("no places assigned")
	}
}

func TestValidate(t *testing.T) {
	m := NewMap()
	sum := newSum()
	if _, err := m.Link(newGen(1), sum, To("input_a")); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err == nil {
		t.Fatal("unbound ports must fail validation")
	}
	if _, err := m.Link(newGen(1), sum, To("input_b")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(sum, newCollect()); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("complete topology failed validation: %v", err)
	}
	// Validate must not consume the map.
	if _, err := m.Exe(); err != nil {
		t.Fatalf("Exe after Validate: %v", err)
	}
}

func TestExeTwiceRejected(t *testing.T) {
	m := NewMap()
	if _, err := m.Link(newGen(5), newCollect()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err == nil {
		t.Fatal("second Exe must be rejected")
	}
}

// TestConfigIsOpaque: Options are the only way to set a run parameter, so
// Config exports no field.
func TestConfigIsOpaque(t *testing.T) {
	typ := reflect.TypeFor[Config]()
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			t.Errorf("Config.%s is exported; set it through an Option", f.Name)
		}
	}
}

// onTopology is a test-local Option: the mapper always maps onto the
// host's topology, so only an in-package test can hand it another one.
func onTopology(top mapper.Topology) Option { return func(c *Config) { c.topology = top } }

func TestTopologyDrivesCutCost(t *testing.T) {
	// A deep pipeline mapped onto two sockets plus a remote node must
	// report a non-zero latency-weighted cut cost.
	m := NewMap()
	var prev Kernel = newGen(100)
	for i := 0; i < 7; i++ {
		w := newWork()
		if _, err := m.Link(prev, w); err != nil {
			t.Fatal(err)
		}
		prev = w
	}
	sink := newCollect()
	if _, err := m.Link(prev, sink); err != nil {
		t.Fatal(err)
	}
	top := mapper.NewLocal(4, 2)
	top.AddRemoteNode(4)
	rep, err := m.Exe(onTopology(top))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CutCost <= 0 {
		t.Fatalf("cut cost = %v, want > 0 across sockets/nodes", rep.CutCost)
	}
	if len(sink.values()) != 100 {
		t.Fatalf("received %d", len(sink.values()))
	}
	places := map[int]bool{}
	for _, k := range rep.Kernels {
		places[k.Place] = true
	}
	if len(places) < 2 {
		t.Fatalf("9 kernels mapped onto %d place(s)", len(places))
	}
}
