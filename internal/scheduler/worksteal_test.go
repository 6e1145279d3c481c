package scheduler

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/mapper"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

func TestWorkStealRunsAll(t *testing.T)      { testSchedulerRunsAll(t, NewWorkSteal(2)) }
func TestWorkStealSingleWorker(t *testing.T) { testSchedulerRunsAll(t, NewWorkSteal(1)) }
func TestWorkStealPanicRecovered(t *testing.T) {
	testPanicRecovered(t, NewWorkSteal(2))
}
func TestWorkStealInitError(t *testing.T)    { testInitError(t, NewWorkSteal(2)) }
func TestWorkStealVirtualActor(t *testing.T) { testVirtualActorSkipped(t, NewWorkSteal(1)) }

// TestWorkStealStall exercises the watchdog path: the staller has no links,
// so nothing ever fires a wake hook and only rescues can finish it.
func TestWorkStealStall(t *testing.T) { testStallThenFinish(t, NewWorkSteal(1)) }

func TestWorkStealEmptyAndName(t *testing.T) {
	ws := NewWorkSteal(3)
	if err := ws.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := ws.Name(); got != "worksteal-3" {
		t.Fatal(got)
	}
	if NewWorkSteal(0).workers() < 1 {
		t.Fatal("default workers must be >= 1")
	}
}

func TestWorkStealStallCountsRescues(t *testing.T) {
	ws := NewWorkSteal(1)
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
	ws := NewWorkSteal(2)
	ws.AttachLinks([]*core.LinkInfo{{ID: 0, Name: "prod->cons", Queue: q, SrcActor: 0, DstActor: 1}})
	if err := ws.Run(actors); err != nil {
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
// whose every end parks: a stage stalls when its input is empty or its
// output full, and only a ring's wake hook — fired by the other end's next
// publish or release after the failed try armed the ring — brings it back.
// A wake lost between the arming and the park would leave the stage to the
// watchdog, so the run must finish with no rescue at all.
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
			Life: finishOnly(func() {
				if out != nil {
					out.Close()
				}
			})}
	}
	ws := NewWorkSteal(2)
	ws.AttachLinks(links)
	if err := ws.Run(actors); err != nil {
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
	ws := NewWorkSteal(2)
	ws.AttachLinks(links)
	ws.AttachTopology(topo)
	if err := ws.Run(actors); err != nil {
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
	ws := NewWorkSteal(2)
	ws.AttachLinks(links)
	ws.AttachTopology(topo)
	if err := ws.Run([]*core.Actor{mk(0, 0), mk(1, 1)}); err != nil {
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
	ws := NewWorkSteal(4)
	ws.StealBatch = 4
	ws.AttachTopology(topo)
	rec := trace.NewRecorder(1024)
	ws.AttachTrace(rec)
	if err := ws.Run(actors); err != nil {
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
	ws := NewWorkSteal(1)
	ws.AttachLinks([]*core.LinkInfo{{ID: 0, Queue: q, SrcActor: -1, DstActor: 0}})
	errc := make(chan error, 1)
	go func() { errc <- ws.Run([]*core.Actor{cons}) }()
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
