package monitor

import (
	"strings"
	"testing"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/ringbuffer"
)

// frozenFixture builds two actors around one full queue: the producer
// blocked pushing, the consumer of a second empty queue blocked popping —
// a fully parked two-kernel system.
func frozenFixture(t *testing.T) ([]*core.Actor, []*core.LinkInfo, func()) {
	t.Helper()
	full := ringbuffer.NewRing[int](1)
	if err := full.Push(0, ringbuffer.SigNone); err != nil {
		t.Fatal(err)
	}
	empty := ringbuffer.NewRing[int](1)

	// Producer actor 0 blocks pushing into the full queue.
	go func() { _ = full.Push(1, ringbuffer.SigNone) }()
	// Consumer actor 1 blocks popping from the empty queue.
	go func() { _, _, _ = empty.Pop() }()
	deadline := time.Now().Add(2 * time.Second)
	for full.WriterBlockedFor() == 0 || empty.ReaderStarvedFor() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fixture goroutines never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}

	actors := []*core.Actor{{ID: 0, Name: "producer"}, {ID: 1, Name: "consumer"}}
	links := []*core.LinkInfo{
		{ID: 0, Name: "producer.out->x.in", Queue: full, SrcActor: 0, DstActor: 1},
		{ID: 1, Name: "y.out->consumer.in", Queue: empty, SrcActor: 0, DstActor: 1},
	}
	cleanup := func() {
		full.Close()
		empty.Close()
	}
	return actors, links, cleanup
}

// newWatch is a deadlock watch that one transaction handed actors and
// links.
func newWatch(actors []*core.Actor, links []*core.LinkInfo, grace time.Duration, abort func(string)) *DeadlockWatch {
	w := NewDeadlockWatch(grace, abort)
	w.Add(actors, links)
	return w
}

func TestDeadlockWatchFires(t *testing.T) {
	actors, links, cleanup := frozenFixture(t)
	defer cleanup()
	var diag string
	w := newWatch(actors, links, 10*time.Millisecond, func(d string) { diag = d })
	base := time.Now()
	w.Check(base)                           // establishes freeze start
	w.Check(base.Add(5 * time.Millisecond)) // within grace: no fire
	if w.Fired() {
		t.Fatal("fired before grace elapsed")
	}
	w.Check(base.Add(20 * time.Millisecond)) // past grace: fire
	if !w.Fired() {
		t.Fatal("did not fire after grace")
	}
	if !strings.Contains(diag, "parked streams") || !strings.Contains(diag, "producer.out->x.in") {
		t.Fatalf("diagnostic = %q", diag)
	}
	// One-shot: further checks do not re-fire.
	diag = ""
	w.Check(base.Add(time.Second))
	if diag != "" {
		t.Fatal("fired twice")
	}
}

func TestDeadlockWatchResetOnProgress(t *testing.T) {
	actors, links, cleanup := frozenFixture(t)
	defer cleanup()
	fired := false
	w := newWatch(actors, links, 10*time.Millisecond, func(string) { fired = true })
	base := time.Now()
	w.Check(base)
	// Simulate progress: bump a queue counter between checks.
	links[0].Queue.Telemetry().Pushes.Add(1)
	w.Check(base.Add(15 * time.Millisecond))
	if fired {
		t.Fatal("fired despite progress between checks")
	}
}

func TestDeadlockWatchIgnoresFinishedActors(t *testing.T) {
	actors, links, cleanup := frozenFixture(t)
	defer cleanup()
	// Mark the consumer finished and unpark it; only the producer remains,
	// and it is parked, so the watch must still fire.
	actors[1].Finished.Store(true)
	fired := false
	w := newWatch(actors, links, 5*time.Millisecond, func(string) { fired = true })
	base := time.Now()
	w.Check(base)                            // syncs the op counter
	w.Check(base.Add(10 * time.Millisecond)) // starts the freeze clock
	w.Check(base.Add(20 * time.Millisecond)) // past grace
	if !fired {
		t.Fatal("watch ignored a parked unfinished actor")
	}
}

func TestDeadlockWatchNotFrozenWhenActorRunning(t *testing.T) {
	actors, links, cleanup := frozenFixture(t)
	defer cleanup()
	// A third actor with no parked streams is "running": never frozen.
	actors = append(actors, &core.Actor{ID: 2, Name: "busy"})
	fired := false
	w := newWatch(actors, links, 5*time.Millisecond, func(string) { fired = true })
	base := time.Now()
	w.Check(base)
	w.Check(base.Add(10 * time.Millisecond))
	w.Check(base.Add(20 * time.Millisecond))
	if fired {
		t.Fatal("fired with an unparked actor present")
	}
}

func TestDeadlockWatchDefaultGrace(t *testing.T) {
	w := NewDeadlockWatch(0, func(string) {})
	if w.grace != time.Second {
		t.Fatalf("default grace = %v", w.grace)
	}
}

func TestDeadlockWatchRestartsCountAsProgress(t *testing.T) {
	actors, links, cleanup := frozenFixture(t)
	defer cleanup()
	fired := false
	w := newWatch(actors, links, 10*time.Millisecond, func(string) { fired = true })
	base := time.Now()
	w.Check(base)
	// A supervised restart between ticks is recovery activity, not a
	// freeze, even though every stream counter is unchanged.
	actors[0].Restarts.Inc()
	w.Check(base.Add(15 * time.Millisecond))
	if fired {
		t.Fatal("fired despite a supervised restart between checks")
	}
}

// TestDeadlockWatchCheckAllocatesNothing: an armed watch is asked every δ
// tick for the whole run, so Check must not allocate: not on a running
// graph (sixteen producers parked on full rings, their consumer busy), nor
// on a frozen one still inside its grace (the consumer left out). Sixteen
// parked actors are more than a small map keeps off the heap.
func TestDeadlockWatchCheckAllocatesNothing(t *testing.T) {
	const n = 16
	var actors []*core.Actor
	var links []*core.LinkInfo
	for i := 0; i < n; i++ {
		full := ringbuffer.NewRing[int](1)
		if err := full.Push(0, ringbuffer.SigNone); err != nil {
			t.Fatal(err)
		}
		go func() { _ = full.Push(1, ringbuffer.SigNone) }()
		defer full.Close()
		deadline := time.Now().Add(2 * time.Second)
		for full.WriterBlockedFor() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("producer never parked")
			}
			time.Sleep(100 * time.Microsecond)
		}
		actors = append(actors, &core.Actor{ID: i, Name: "producer"})
		links = append(links, &core.LinkInfo{ID: i, Queue: full, SrcActor: i, DstActor: n})
	}
	running := append(actors[:n:n], &core.Actor{ID: n, Name: "consumer"})
	for _, tc := range []struct {
		name   string
		actors []*core.Actor
	}{{"running", running}, {"frozen", actors}} {
		w := newWatch(tc.actors, links, time.Hour, func(string) { t.Error("fired") })
		now := time.Now()
		w.Check(now) // sizes the scratch
		allocs := testing.AllocsPerRun(100, func() { w.Check(now) })
		t.Logf("%s: %v allocs per Check", tc.name, allocs)
		if allocs != 0 {
			t.Fatalf("%s: Check allocates %v per tick, want 0", tc.name, allocs)
		}
	}
}

// TestDeadlockWatchCountsSchedulerParks: under the work-stealing scheduler
// a kernel waits parked, not in a ring, so no stream stamps a block. An
// actor the scheduler holds parked counts as blocked, and the diagnostic
// names it; one that is not keeps the graph alive. A removed link leaves
// the scan.
func TestDeadlockWatchCountsSchedulerParks(t *testing.T) {
	q := ringbuffer.NewRing[int](2)
	defer q.Close()
	actors := []*core.Actor{{ID: 0, Name: "tee"}, {ID: 1, Name: "join"}}
	links := []*core.LinkInfo{{ID: 0, Name: "tee.a->join.a", Queue: q, SrcActor: 0, DstActor: 1}}
	var diag string
	w := newWatch(actors, links, 5*time.Millisecond, func(d string) { diag = d })
	actors[0].Parked.Store(true)
	base := time.Now()
	for i := 0; i < 3; i++ {
		w.Check(base.Add(time.Duration(i) * 10 * time.Millisecond))
	}
	if w.Fired() {
		t.Fatal("fired with an actor not parked")
	}
	actors[1].Parked.Store(true)
	for i := 3; i < 6; i++ {
		w.Check(base.Add(time.Duration(i) * 10 * time.Millisecond))
	}
	if !w.Fired() {
		t.Fatal("did not fire with every actor parked by the scheduler")
	}
	if !strings.Contains(diag, "kernels parked by the scheduler: tee, join") {
		t.Fatalf("diagnostic = %q", diag)
	}
	w.RemoveLinks(links)
	if len(w.links) != 0 {
		t.Fatalf("%d links left after RemoveLinks", len(w.links))
	}
}
