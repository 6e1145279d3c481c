package scheduler

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/mapper"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

// newWS is a work-stealing scheduler of n workers without a topology or a
// trace recorder.
func newWS(n int) *WorkSteal { return NewWorkSteal(n, mapper.Topology{}, nil) }

func TestWorkStealSpawnAfterWait(t *testing.T) { testSpawnAfterWait(t, newWS(2)) }

func TestWorkStealRunsAll(t *testing.T)      { testSchedulerRunsAll(t, newWS(2)) }
func TestWorkStealSingleWorker(t *testing.T) { testSchedulerRunsAll(t, newWS(1)) }
func TestWorkStealPanicRecovered(t *testing.T) {
	testPanicRecovered(t, newWS(2))
}
func TestWorkStealInitError(t *testing.T) {
	testInitError(t, func() Scheduler { return newWS(2) })
}
func TestWorkStealVirtualActor(t *testing.T) {
	testVirtualActorSkipped(t, func() Scheduler { return newWS(1) })
}

// TestWorkStealStall exercises the watchdog path: the staller has no links,
// so nothing ever fires a wake hook and only rescues can finish it.
func TestWorkStealStall(t *testing.T) { testStallThenFinish(t, newWS(1)) }

func TestWorkStealEmptyAndName(t *testing.T) {
	ws := newWS(3)
	if err := run(ws, nil); err != nil {
		t.Fatal(err)
	}
	if got := ws.Name(); got != "worksteal-3" {
		t.Fatal(got)
	}
	if newWS(0).nw < 1 {
		t.Fatal("default workers must be >= 1")
	}
}

func TestWorkStealStallCountsRescues(t *testing.T) {
	ws := newWS(1)
	testStallThenFinish(t, ws)
	s := ws.SchedStats()
	if s.Parks == 0 {
		t.Fatalf("stats = %+v, want parks > 0", s)
	}
	if s.Rescues == 0 {
		t.Fatalf("stats = %+v, want watchdog rescues for a hook-less staller", s)
	}
	if s.Scheduler != "worksteal-1" || s.Workers != 1 {
		t.Fatalf("stats identity = %+v", s)
	}
}

// TestWorkStealGraceInWholeTicks drives the watchdog's scan by hand over
// four tasks parked between ticks 7 and 8. Each is looked at once more than
// one whole tick has passed since its park (tick 9). The retired task is
// queued as a wake and the ready one as a rescue. The waiting task is
// parked again, and looked at anew two ticks later. The ready task whose
// input ring has a wake under way — published into, the hook not yet
// fired — is parked again with its old stamp, until wsLate ticks after its
// park count the wake as lost. No look counts a park, and a park reads the
// tick count, not the clock.
func TestWorkStealGraceInWholeTicks(t *testing.T) {
	ws := newWS(1)
	asked := 0
	ready := &wsTask{a: &core.Actor{}}
	retired := &wsTask{a: &core.Actor{ID: 1, Gate: &core.Gate{}}}
	waiting := &wsTask{a: &core.Actor{ID: 2, Life: waitingLife{&asked}}}
	late := &wsTask{a: &core.Actor{ID: 3}}
	ws.tasks = []*wsTask{ready, retired, waiting, late}
	// late's input: its consumer armed the ring, and a producer published
	// into it through a write window without the Attend the push asked for.
	in := ringbuffer.NewRing[int](8)
	if !in.Blocked(false) {
		t.Fatal("empty ring not blocked")
	}
	if _, ok, _ := in.PushWindowed(1, ringbuffer.SigNone, 4, false); !ok {
		t.Fatal("push refused")
	}
	in.TryPop()
	if _, _, ok, _ := in.TryPop(); ok {
		t.Fatal("TryPop on an empty ring returned an element")
	}
	if stored, attend := in.WindowPush(2); !stored || !attend {
		t.Fatalf("window push stored %v, attend %v; want both", stored, attend)
	}
	ws.hooks = []*wsHook{{ws: ws, dst: late, q: in}}
	const parkedAt = 7 // the park lands between ticks 7 and 8
	ws.ticks.Store(parkedAt)
	for _, task := range ws.tasks {
		task.state.Store(wsRunning)
		ws.park(task, 0)
		if got := task.parkedAt.Load(); got != parkedAt {
			t.Fatalf("park stamped tick %d, want %d", got, parkedAt)
		}
	}
	retired.a.Gate.Retire()
	for _, step := range []struct {
		tick   uint64
		queued bool // ready and retired
		asked  int  // the waiting task's Ready calls so far
		late   bool // late queued
	}{
		{parkedAt + 1, false, 0, false},
		{parkedAt + 2, true, 1, false},
		{parkedAt + 3, true, 1, false},
		{parkedAt + 4, true, 2, false},
		{parkedAt + wsLate, true, 3, false},
		{parkedAt + wsLate + 1, true, 3, true},
	} {
		ws.ticks.Store(step.tick)
		ws.rescue(step.tick)
		for _, task := range []*wsTask{ready, retired} {
			if got := task.state.Load() == wsQueued; got != step.queued {
				t.Errorf("tick %d: task %d queued = %v, want %v", step.tick, task.a.ID, got, step.queued)
			}
		}
		if waiting.state.Load() != wsParked || asked != step.asked {
			t.Errorf("tick %d: waiting task state %d asked %d times, want parked and %d", step.tick, waiting.state.Load(), asked, step.asked)
		}
		if got := late.state.Load() == wsQueued; got != step.late {
			t.Errorf("tick %d: task with a wake under way queued = %v, want %v", step.tick, got, step.late)
		}
	}
	s := ws.SchedStats()
	if s.Rescues != 2 || s.Wakes != 1 || s.Parks != 4 {
		t.Fatalf("rescues %d wakes %d parks %d, want 2, 1 and 4", s.Rescues, s.Wakes, s.Parks)
	}
}

// waitingLife is a Lifecycle that is never ready and counts the asks.
type waitingLife struct{ asked *int }

func (w waitingLife) Ready() bool { *w.asked++; return false }
func (waitingLife) Await()        {}
func (waitingLife) Finish(error)  {}

// ringLife is the Lifecycle of a stage between two rings (nil at a chain
// end). Ready asks the rings as the engine's kernels do: no input empty and
// no output full, a closed ring counting as ready, and a blocked end armed
// as it answers. Finish closes the output.
type ringLife struct{ in, out *ringbuffer.Ring[int] }

func (r ringLife) Ready() bool {
	return (r.in == nil || !r.in.Blocked(false)) && (r.out == nil || !r.out.Blocked(true))
}
func (ringLife) Await() { runtime.Gosched() }
func (r ringLife) Finish(error) {
	if r.out != nil {
		r.out.Close()
	}
}

// pipelineActors builds a producer->consumer pair over one hooked queue:
// the producer pushes n elements (stalling when full) and the consumer pops
// them (stalling when empty), so completion requires park/wake to work in
// both directions.
func pipelineActors(t *testing.T, q *ringbuffer.Ring[int], n int) ([]*core.Actor, *atomic.Int64) {
	t.Helper()
	var got atomic.Int64
	sent := 0
	prod := &core.Actor{
		ID: 0, Name: "prod",
		Step: func() core.Status {
			if sent == n {
				return core.Stop
			}
			ok, err := q.TryPush(sent, ringbuffer.SigNone)
			if err != nil {
				t.Error(err)
				return core.Stop
			}
			if !ok {
				return core.Stall
			}
			sent++
			return core.Proceed
		},
		Life: finishOnly(func() { q.Close() }),
	}
	cons := &core.Actor{
		ID: 1, Name: "cons",
		Step: func() core.Status {
			_, _, ok, err := q.TryPop()
			if err != nil {
				return core.Stop // closed and drained
			}
			if !ok {
				return core.Stall
			}
			got.Add(1)
			return core.Proceed
		},
	}
	return []*core.Actor{prod, cons}, &got
}

func testWorkStealParkWake(t *testing.T, q *ringbuffer.Ring[int]) {
	t.Helper()
	const n = 5000
	actors, got := pipelineActors(t, q, n)
	ws := newWS(2)
	if err := run(ws, actors, &core.LinkInfo{ID: 0, Name: "prod->cons", Queue: q, SrcActor: 0, DstActor: 1}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != n {
		t.Fatalf("consumed %d, want %d", got.Load(), n)
	}
	s := ws.SchedStats()
	if s.Parks == 0 || s.Wakes == 0 {
		t.Fatalf("stats = %+v, want parks and link wakes on a tiny queue", s)
	}
}

func TestWorkStealParkWakeRing(t *testing.T) {
	testWorkStealParkWake(t, ringbuffer.NewRing[int](4))
}

// TestWorkStealEveryParkIsWoken runs a chain of stages over two-slot rings
// whose every end parks: a stage is not ready, or stalls, when its input is
// empty or its output full, and only a ring's wake hook — fired by the
// other end's next publish or release after Ready or the failed try armed
// the ring — brings it back. A wake lost between the arming and the park
// would leave a ready stage to the watchdog, so the run must finish with no
// rescue at all.
func TestWorkStealEveryParkIsWoken(t *testing.T) {
	const n, stages = 20000, 4
	rings := make([]*ringbuffer.Ring[int], stages-1)
	links := make([]*core.LinkInfo, len(rings))
	for i := range rings {
		rings[i] = ringbuffer.NewRing[int](2)
		links[i] = &core.LinkInfo{ID: i, Queue: rings[i], SrcActor: i, DstActor: i + 1}
	}
	var got atomic.Int64
	actors := make([]*core.Actor, stages)
	for i := range actors {
		var in, out *ringbuffer.Ring[int]
		if i > 0 {
			in = rings[i-1]
		}
		if i < stages-1 {
			out = rings[i]
		}
		sent, held, have := 0, 0, false
		actors[i] = &core.Actor{ID: i, Name: fmt.Sprintf("s%d", i),
			Step: func() core.Status {
				if !have {
					if in == nil {
						if sent == n {
							return core.Stop
						}
						held, have = sent, true
						sent++
					} else {
						v, _, ok, err := in.TryPop()
						if err != nil {
							return core.Stop
						}
						if !ok {
							return core.Stall
						}
						held, have = v, true
					}
				}
				if out == nil {
					if held != int(got.Load()) {
						t.Errorf("sink got %d, want %d", held, got.Load())
					}
					got.Add(1)
					have = false
					return core.Proceed
				}
				ok, err := out.TryPush(held, ringbuffer.SigNone)
				if err != nil {
					t.Error(err)
					return core.Stop
				}
				if !ok {
					return core.Stall
				}
				have = false
				return core.Proceed
			},
			Life: ringLife{in, out}}
	}
	ws := newWS(2)
	if err := run(ws, actors, links...); err != nil {
		t.Fatal(err)
	}
	if got.Load() != n {
		t.Fatalf("consumed %d, want %d", got.Load(), n)
	}
	s := ws.SchedStats()
	if s.Parks == 0 || s.Wakes == 0 || s.Rescues != 0 {
		t.Fatalf("stats = %+v, want parks, link wakes and no rescue", s)
	}
}

func TestWorkStealPlacementLocality(t *testing.T) {
	// Two chains mapped to different sockets must land on different shards
	// with zero cross-shard links; scrambled construction order must not
	// matter because placement sorts by place key.
	topo := mapper.NewLocal(4, 2)
	qa, qb := ringbuffer.NewRing[int](8), ringbuffer.NewRing[int](8)
	mk := func(id, place int, name string) *core.Actor {
		return &core.Actor{ID: id, Name: name, Place: place,
			Step: func() core.Status { return core.Stop }}
	}
	// Socket of place p in NewLocal(4, 2): places 0,1 socket 0; 2,3 socket 1.
	actors := []*core.Actor{
		mk(0, 0, "a-src"), mk(1, 3, "b-src"), mk(2, 1, "a-dst"), mk(3, 2, "b-dst"),
	}
	links := []*core.LinkInfo{
		{ID: 0, Queue: qa, SrcActor: 0, DstActor: 2, Batch: &core.BatchControl{}},
		{ID: 1, Queue: qb, SrcActor: 1, DstActor: 3, Batch: &core.BatchControl{}},
	}
	ws := NewWorkSteal(2, topo, nil)
	if err := run(ws, actors, links...); err != nil {
		t.Fatal(err)
	}
	if got := ws.SchedStats().CrossShardLinks; got != 0 {
		t.Fatalf("cross-shard links = %d, want 0 (socket-split chains)", got)
	}
	if links[0].Batch.Get() != 0 {
		t.Fatal("co-scheduled link must not receive a cross-shard batch hint")
	}
}

func TestWorkStealCrossShardBatchHint(t *testing.T) {
	// One chain forced across both shards: the link should be scored
	// cross-shard and given an initial batch hint, but never override a pin.
	topo := mapper.NewLocal(2, 2)
	qa, qb := ringbuffer.NewRing[int](64), ringbuffer.NewRing[int](64)
	mk := func(id, place int) *core.Actor {
		return &core.Actor{ID: id, Place: place, Name: "k",
			Step: func() core.Status { return core.Stop }}
	}
	pinned := &core.BatchControl{}
	pinned.Pin(1)
	links := []*core.LinkInfo{
		{ID: 0, Queue: qa, SrcActor: 0, DstActor: 1, Batch: &core.BatchControl{}},
		{ID: 1, Queue: qb, SrcActor: 0, DstActor: 1, Batch: pinned},
	}
	ws := NewWorkSteal(2, topo, nil)
	if err := run(ws, []*core.Actor{mk(0, 0), mk(1, 1)}, links...); err != nil {
		t.Fatal(err)
	}
	if got := ws.SchedStats().CrossShardLinks; got != 2 {
		t.Fatalf("cross-shard links = %d, want 2", got)
	}
	if got := links[0].Batch.Get(); got != 32 {
		t.Fatalf("cross-shard batch hint = %d, want 32 (cap 64 / 2 floor 32)", got)
	}
	if got := links[1].Batch.Get(); got != 1 {
		t.Fatalf("pinned batch = %d, want untouched 1", got)
	}
}

func TestWorkStealStealsUnderImbalance(t *testing.T) {
	// All work born on shard 0 (every place the same): with 4 workers the
	// other shards can only run by stealing.
	topo := mapper.NewLocal(1, 1)
	var actors []*core.Actor
	for i := 0; i < 64; i++ {
		a, _, _ := counterActor("k", 2000)
		a.ID = i
		a.Place = 0
		actors = append(actors, a)
	}
	rec := trace.NewRecorder(1024)
	ws := NewWorkSteal(4, topo, rec)
	ws.StealBatch = 4
	if err := run(ws, actors); err != nil {
		t.Fatal(err)
	}
	s := ws.SchedStats()
	if s.Steals == 0 || s.StolenTasks == 0 {
		t.Fatalf("stats = %+v, want steals under single-shard load", s)
	}
	found := false
	for _, e := range rec.Events() {
		if e.Kind == trace.Steal {
			found = true
			if !strings.HasPrefix(e.Label, "w") || e.Arg < 1 {
				t.Fatalf("malformed steal event %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("no Steal trace events emitted")
	}
}

func TestWorkStealWakeClosedUnblocksConsumer(t *testing.T) {
	// A consumer parked on an empty queue must be woken by Close alone.
	q := ringbuffer.NewRing[int](4)
	var done atomic.Bool
	cons := &core.Actor{ID: 0, Name: "cons",
		Step: func() core.Status {
			_, _, ok, err := q.TryPop()
			if err != nil {
				done.Store(true)
				return core.Stop
			}
			if !ok {
				return core.Stall
			}
			return core.Proceed
		}}
	ws := newWS(1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ws, []*core.Actor{cons}, &core.LinkInfo{ID: 0, Queue: q, SrcActor: -1, DstActor: 0})
	}()
	time.Sleep(20 * time.Millisecond) // let the consumer park
	q.Close()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never woke after Close")
	}
	if !done.Load() {
		t.Fatal("consumer did not observe ErrClosed")
	}
}

// TestWorkStealNewLinkWakesRunningConsumer spawns a consumer that parks with
// nothing to read and no hooked ring, then a second batch: a producer, and
// the link from it to the consumer, whose Init stands in for a rewrite
// arming the consumer's staged port. Adopting the link must wake the
// consumer, found by its actor ID; the watchdog must have nothing to
// rescue.
func TestWorkStealNewLinkWakesRunningConsumer(t *testing.T) {
	const n = 1000
	q := ringbuffer.NewRing[int](4)
	var adopted atomic.Bool
	var got atomic.Int64
	cons := &core.Actor{ID: 7, Name: "cons",
		Step: func() core.Status {
			if !adopted.Load() {
				return core.Stall
			}
			_, _, ok, err := q.TryPop()
			if err != nil {
				return core.Stop
			}
			if !ok {
				return core.Stall
			}
			got.Add(1)
			return core.Proceed
		},
		Life: adoptLife{&adopted, q}}
	actors, _ := pipelineActors(t, q, n)
	prod := actors[0]
	prod.ID = 3
	prod.Init = func() error { adopted.Store(true); return nil }
	ws := newWS(2)
	if err := ws.Spawn([]*core.Actor{cons}, nil); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !cons.Parked.Load(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("consumer never parked")
		}
	}
	if err := run(ws, []*core.Actor{prod}, &core.LinkInfo{ID: 0, Queue: q, SrcActor: 3, DstActor: 7}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != n {
		t.Fatalf("consumed %d, want %d", got.Load(), n)
	}
	if s := ws.SchedStats(); s.Rescues != 0 || s.Wakes == 0 {
		t.Fatalf("stats = %+v, want link wakes and no rescue", s)
	}
	if cons.Parked.Load() || prod.Parked.Load() {
		t.Fatal("a finished actor still reads as parked")
	}
}

// adoptLife is the consumer's Lifecycle in
// TestWorkStealNewLinkWakesRunningConsumer: not ready before its port is
// adopted, then ready when its ring holds data.
type adoptLife struct {
	adopted *atomic.Bool
	q       *ringbuffer.Ring[int]
}

func (l adoptLife) Ready() bool { return l.adopted.Load() && !l.q.Blocked(false) }
func (adoptLife) Await()        { runtime.Gosched() }
func (adoptLife) Finish(error)  {}
