package scheduler

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/mapper"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

// Task states for the park/wake protocol. A task is in exactly one deque
// iff its state is wsQueued; the transitions are CAS-only so a wake racing
// a park can never lose the kernel:
//
//	Parked --wake/rescue--> Queued --worker pop--> Running
//	Running --stall, CAS ok--> Parked
//	Running --hook fires mid-step--> RunningWake --park attempt--> Queued
//	Running --Stop/panic--> Done
//
// The RunningWake detour closes the check-then-park race. A kernel's
// readiness check or failed try arms the ring it would block on, and the
// ring fires the hook on the other end's first publish or release after
// the arming (a Dekker pair: one of the two sees the other), so a
// transition that lands between the check and the park CAS must observe
// state Running, flip it to RunningWake, and thereby turn the park into an
// immediate requeue.
const (
	wsParked int32 = iota
	wsQueued
	wsRunning
	wsRunningWake
	wsDone
)

// wsTask is one kernel's scheduling handle.
type wsTask struct {
	a    *core.Actor
	idx  int // index into Run's actors slice (error slot)
	home int // shard whose deque wakes re-enqueue to
	// hooked records whether at least one of the kernel's links carries a
	// wake hook; hook-less stallers rely on the watchdog alone and get the
	// short rescue grace. Atomic: dynamic link wiring flips it while the
	// watchdog reads.
	hooked   atomic.Bool
	state    atomic.Int32
	parkedAt atomic.Uint64 // watchdog tick count at the park (grace base)
}

// Work-stealing tuning. The quantum bounds how long one kernel holds a
// worker before peers waiting in its shard go first.
const (
	wsQuantum = 64
	// wsIdleRecheck bounds how long an idle worker sleeps between deque
	// sweeps when no wake token arrives (pure backstop; tokens are the
	// fast path).
	wsIdleRecheck = 2 * time.Millisecond
	// wsWatchdogTick is the rescue scan period. A parked task is rescued
	// by the first scan that counts more than its grace of whole ticks
	// since its park: after at least grace ticks, within grace+1.
	// wsGraceBare (>= 1 ms) is for kernels with no hooked links (their
	// stalls have no wake source, so the watchdog IS their scheduler),
	// wsGraceHooked (>= 10 ms) for kernels whose links carry hooks (rescue
	// only covers non-queue stall reasons).
	wsWatchdogTick = 5 * time.Millisecond
	wsGraceBare    = 1
	wsGraceHooked  = 2
	// wsTraceSample emits every Nth park/wake to the trace bus (steals are
	// always emitted; parks and wakes are the hot path).
	wsTraceSample = 64
)

// WorkSteal is the sharded work-stealing scheduler: per-worker ready
// deques (LIFO local pop, batched FIFO steal), a park/wake protocol driven
// by ring-transition hooks instead of stall-sleep polling, and
// locality-aware shard assignment that keeps mapper-colocated
// producer/consumer pairs on one shard and widens the transfer batches of
// links that still cross shards. See DESIGN.md §Schedulers for the
// correctness argument.
type WorkSteal struct {
	// Workers is the number of worker goroutines / deque shards (defaults
	// to GOMAXPROCS).
	Workers int
	// StealBatch caps how many tasks one steal moves (defaults to 8; the
	// steal still takes at most half the victim's queue).
	StealBatch int

	// Counters is the shared stats block (created by NewWorkSteal; Run
	// creates it lazily for zero-value literals).
	Counters *counters

	// Engine attachments (optional; plain Run works without them, it just
	// schedules with round-robin placement and watchdog-only wakes).
	links    []*core.LinkInfo
	topo     mapper.Topology
	haveTopo bool
	tr       *trace.Recorder

	deques     []*stealDeque
	tokens     chan struct{}
	crossShard atomic.Int32
	nw         int
	// ticks counts the watchdog's scans; parks stamp it.
	ticks atomic.Uint64

	// ready is closed once Run has built the deques, letting Spawn and
	// TakeLink from a rewrite transaction wait out the startup race.
	// Created by NewWorkSteal; the zero-value literal cannot spawn.
	ready chan struct{}

	// dynMu guards the dynamic run state: the live task list (watchdog
	// scan set, extended by Spawn), the unfinished-task count standing in
	// for a WaitGroup (Add racing Wait-at-zero is illegal on WaitGroup),
	// and the hooked-queue list Run detaches on the way out.
	dynMu    sync.Mutex
	pendCond *sync.Cond
	pendingN int
	stopped  bool
	tasks    []*wsTask
	hooked   []ringbuffer.WakeHooker

	errMu sync.Mutex
	errs  []error
}

// NewWorkSteal returns a work-stealing scheduler with the given worker
// count (0 = GOMAXPROCS).
func NewWorkSteal(workers int) *WorkSteal {
	return &WorkSteal{Workers: workers, Counters: &counters{}, ready: make(chan struct{})}
}

// AttachLinks hands the scheduler the engine's link table so it can install
// wake hooks and score cross-shard edges. Call before Run.
func (ws *WorkSteal) AttachLinks(links []*core.LinkInfo) { ws.links = links }

// AttachTopology hands the scheduler the mapper's topology so shard
// assignment can follow place locality. Call before Run.
func (ws *WorkSteal) AttachTopology(t mapper.Topology) { ws.topo, ws.haveTopo = t, true }

// AttachTrace points the scheduler at the engine's trace bus for Steal /
// Park / Wake events. Call before Run.
func (ws *WorkSteal) AttachTrace(r *trace.Recorder) { ws.tr = r }

// Name implements Scheduler.
func (ws *WorkSteal) Name() string { return fmt.Sprintf("worksteal-%d", ws.workers()) }

func (ws *WorkSteal) workers() int {
	if ws.Workers > 0 {
		return ws.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (ws *WorkSteal) stealBatch() int {
	if ws.StealBatch > 0 {
		return ws.StealBatch
	}
	return 8
}

// SchedStats implements StatsReporter. Safe concurrently with Run.
func (ws *WorkSteal) SchedStats() Stats {
	s := Stats{
		Scheduler:       ws.Name(),
		Workers:         ws.workers(),
		CrossShardLinks: int(ws.crossShard.Load()),
	}
	ws.Counters.snapshot(&s)
	return s
}

// Run implements Scheduler.
func (ws *WorkSteal) Run(actors []*core.Actor) error {
	if ws.Counters == nil {
		ws.Counters = &counters{}
	}
	nw := ws.workers()
	ws.nw = nw
	ws.pendCond = sync.NewCond(&ws.dynMu)
	ws.errs = make([]error, len(actors))

	// Initialize all actors up front: failures and virtual kernels finish
	// immediately and never enter a deque. The tasks are one slab.
	slab := make([]wsTask, len(actors))
	live := make([]*wsTask, 0, len(actors))
	for i, a := range actors {
		if a.Init != nil {
			if err := a.Init(); err != nil {
				ws.errs[i] = fmt.Errorf("kernel %q init: %w", a.Name, err)
				a.Finish()
				a.Finished.Store(true)
				continue
			}
		}
		if a.Virtual {
			a.Finish()
			a.Finished.Store(true)
			continue
		}
		t := &slab[i]
		t.a, t.idx = a, i
		live = append(live, t)
	}
	if len(live) == 0 {
		ws.dynMu.Lock()
		ws.stopped = true
		ws.dynMu.Unlock()
		if ws.ready != nil {
			close(ws.ready)
		}
		return errors.Join(ws.errs...)
	}

	ws.placement(live, nw)
	ws.hooked = append(ws.hooked, ws.installHooks(live)...)
	defer func() {
		ws.dynMu.Lock()
		hooked := ws.hooked
		ws.dynMu.Unlock()
		for _, h := range hooked {
			h.SetWakeHook(nil)
		}
	}()

	ws.deques = make([]*stealDeque, nw)
	for i := range ws.deques {
		ws.deques[i] = newStealDeque(2 * len(live) / nw)
	}
	ws.tokens = make(chan struct{}, nw)
	done := make(chan struct{})

	ws.tasks = live
	ws.pendingN = len(live)
	for _, t := range live {
		t.state.Store(wsQueued)
		ws.deques[t.home].pushBottom(t)
	}
	for i := 0; i < nw; i++ {
		ws.token()
	}
	if ws.ready != nil {
		close(ws.ready) // Spawn/TakeLink may proceed from here
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws.watchdog(done)
	}()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws.worker(w, nw, done)
		}(w)
	}

	ws.dynMu.Lock()
	for ws.pendingN > 0 {
		ws.pendCond.Wait()
	}
	ws.stopped = true
	ws.dynMu.Unlock()
	close(done)
	wg.Wait()
	ws.errMu.Lock()
	defer ws.errMu.Unlock()
	return errors.Join(ws.errs...)
}

// taskDone retires one task from the pending count; the last one out
// wakes Run.
func (ws *WorkSteal) taskDone() {
	ws.dynMu.Lock()
	ws.pendingN--
	if ws.pendingN == 0 {
		ws.pendCond.Broadcast()
	}
	ws.dynMu.Unlock()
}

// recordErr files one task's terminal error: initial actors keep their
// positional slot, spawned actors append.
func (ws *WorkSteal) recordErr(t *wsTask, err error) {
	ws.errMu.Lock()
	if t.idx >= 0 && t.idx < len(ws.errs) {
		ws.errs[t.idx] = err
	} else {
		ws.errs = append(ws.errs, err)
	}
	ws.errMu.Unlock()
}

// Spawn implements Spawner: a rewrite transaction hands the running
// scheduler a freshly-built actor. The task joins a shard deque chosen
// round-robin (locality for dynamic kernels comes from the wake hooks,
// not placement) and is woken like any queued task. Blocks until Run has
// built the deques; fails once the execution has completed.
func (ws *WorkSteal) Spawn(a *core.Actor) error {
	if ws.ready == nil {
		return errors.New("scheduler: WorkSteal zero value cannot spawn (use NewWorkSteal)")
	}
	<-ws.ready
	t := &wsTask{a: a, idx: -1}
	ws.dynMu.Lock()
	if ws.stopped {
		ws.dynMu.Unlock()
		return errors.New("scheduler: execution already completed")
	}
	ws.pendingN++
	t.home = len(ws.tasks) % ws.nw
	ws.tasks = append(ws.tasks, t)
	ws.dynMu.Unlock()

	if a.Init != nil {
		if err := a.Init(); err != nil {
			err = fmt.Errorf("kernel %q init: %w", a.Name, err)
			ws.recordErr(t, err)
			t.state.Store(wsDone)
			a.Finish()
			a.Finished.Store(true)
			ws.taskDone()
			return err
		}
	}
	if a.Virtual {
		t.state.Store(wsDone)
		a.Finish()
		a.Finished.Store(true)
		ws.taskDone()
		return nil
	}
	t.state.Store(wsQueued)
	ws.deques[t.home].pushBottom(t)
	ws.token()
	return nil
}

// TakeLink wires a dynamically-added link's queue into the park/wake
// protocol, exactly as installHooks does for the initial link table. The
// hook is detached with the others when Run returns.
func (ws *WorkSteal) TakeLink(l *core.LinkInfo) {
	if ws.ready == nil {
		return
	}
	<-ws.ready
	hk := &wsHook{ws: ws}
	if h := hk.hook(l, ws.findTask(l.SrcActor), ws.findTask(l.DstActor)); h != nil {
		ws.dynMu.Lock()
		ws.hooked = append(ws.hooked, h)
		ws.dynMu.Unlock()
	}
}

// wsHook is one link's wake hook: a push that makes the queue non-empty
// wakes the consumer, a pop that makes it non-full wakes the producer, and
// close wakes both. installHooks lays the hooks of the initial link table
// out in one slab.
type wsHook struct {
	ws       *WorkSteal
	src, dst *wsTask
}

// hook installs h on l's queue with the given end tasks and returns the
// queue, or nil when the queue takes no hooks or neither end is a task.
func (h *wsHook) hook(l *core.LinkInfo, src, dst *wsTask) ringbuffer.WakeHooker {
	q, ok := l.Queue.(ringbuffer.WakeHooker)
	if !ok || src == nil && dst == nil {
		return nil
	}
	if src != nil {
		src.hooked.Store(true)
	}
	if dst != nil {
		dst.hooked.Store(true)
	}
	h.src, h.dst = src, dst
	q.SetWakeHook(h)
	return q
}

// OnWake implements ringbuffer.WakeHook. Hook contract: no blocking, no
// queue re-entry. wake does CAS + deque mutex + non-blocking token send
// only.
func (h *wsHook) OnWake(w ringbuffer.Wake) {
	if h.src != nil && w != ringbuffer.WakeNotEmpty {
		h.ws.wake(h.src, false)
	}
	if h.dst != nil && w != ringbuffer.WakeNotFull {
		h.ws.wake(h.dst, false)
	}
}

// findTask locates a live task by engine actor ID (dynamic-link wiring
// only — not a hot path).
func (ws *WorkSteal) findTask(id int) *wsTask {
	if id < 0 {
		return nil
	}
	ws.dynMu.Lock()
	defer ws.dynMu.Unlock()
	for _, t := range ws.tasks {
		if t.a.ID == id {
			return t
		}
	}
	return nil
}

// placement assigns each task's home shard. With a topology attached the
// tasks are ordered by their mapper place's (node, socket, core) key and
// split into contiguous equal-count shards, so kernels the mapper
// co-located (it already minimizes latency-weighted cut cost, with
// cross-socket edges the expensive ones) land on the same shard and their
// links never cross deques; unmapped kernels keep construction order at
// the tail. Without a topology the same contiguous split over construction
// order degrades to blocked round-robin, which still keeps pipeline
// neighbours together. Cross-shard links are then counted and, because
// every element crossing them pays a handoff between workers, given an
// initial transfer-batch hint so they amortize the crossing.
func (ws *WorkSteal) placement(tasks []*wsTask, nw int) {
	ord := make([]*wsTask, len(tasks))
	copy(ord, tasks)
	if ws.haveTopo {
		places := ws.topo.Places
		key := func(t *wsTask) int {
			p := t.a.Place
			if p < 0 || p >= len(places) {
				return 1 << 30 // unmapped: after every real place
			}
			pl := places[p]
			return pl.Node<<20 | pl.Socket<<10 | pl.Core
		}
		sort.SliceStable(ord, func(i, j int) bool { return key(ord[i]) < key(ord[j]) })
	}
	for i, t := range ord {
		t.home = i * nw / len(ord)
	}

	byID := ws.tasksByID(tasks)
	cross := 0
	for _, l := range ws.links {
		src, dst := taskFor(byID, l.SrcActor), taskFor(byID, l.DstActor)
		if src == nil || dst == nil || src.home == dst.home {
			continue
		}
		cross++
		hint := 32
		if c := l.Queue.Cap() / 2; c < hint {
			hint = c
		}
		l.Batch.Hint(hint)
	}
	ws.crossShard.Store(int32(cross))
}

// tasksByID indexes live tasks by actor ID for link-endpoint lookup (the
// engine assigns dense IDs; hand-built test actors without links never
// reach the lookups).
func (ws *WorkSteal) tasksByID(tasks []*wsTask) []*wsTask {
	maxID := -1
	for _, t := range tasks {
		if t.a.ID > maxID {
			maxID = t.a.ID
		}
	}
	byID := make([]*wsTask, maxID+1)
	for _, t := range tasks {
		byID[t.a.ID] = t
	}
	return byID
}

func taskFor(byID []*wsTask, id int) *wsTask {
	if id < 0 || id >= len(byID) {
		return nil
	}
	return byID[id]
}

// installHooks wires every hook-capable link queue to the park/wake
// protocol (wsHook). Returns the hooked queues so Run can detach them on
// the way out.
func (ws *WorkSteal) installHooks(tasks []*wsTask) []ringbuffer.WakeHooker {
	byID := ws.tasksByID(tasks)
	hooks := make([]wsHook, len(ws.links))
	hooked := make([]ringbuffer.WakeHooker, 0, len(ws.links))
	for i, l := range ws.links {
		hooks[i].ws = ws
		if h := hooks[i].hook(l, taskFor(byID, l.SrcActor), taskFor(byID, l.DstActor)); h != nil {
			hooked = append(hooked, h)
		}
	}
	return hooked
}

// token nudges one idle worker awake. The channel holds Workers tokens, so
// a failed (full-channel) send proves every worker already has a wake
// pending — no enqueue can be lost while all workers park.
func (ws *WorkSteal) token() {
	select {
	case ws.tokens <- struct{}{}:
	default:
	}
}

// wake transitions a task toward Queued in response to a link transition
// (rescue=false) or a watchdog rescue (rescue=true). Safe from any
// goroutine, including under a ring's internal lock.
func (ws *WorkSteal) wake(t *wsTask, rescue bool) {
	for {
		switch t.state.Load() {
		case wsParked:
			if !t.state.CompareAndSwap(wsParked, wsQueued) {
				continue // raced another waker; re-inspect
			}
			var n uint64
			if rescue {
				n = ws.Counters.rescues.Add(1)
			} else {
				n = ws.Counters.wakes.Add(1)
			}
			ws.deques[t.home].pushBottom(t)
			ws.token()
			if ws.tr != nil && n%wsTraceSample == 1 {
				arg := int64(0)
				if rescue {
					arg = 1
				}
				ws.tr.Emit(trace.Event{Actor: int32(t.a.ID), Kind: trace.Wake, At: time.Now().UnixNano(), Arg: arg})
			}
			return
		case wsRunning:
			// Mid-step: leave a wake mark so the park attempt requeues.
			if t.state.CompareAndSwap(wsRunning, wsRunningWake) {
				return
			}
		default: // Queued, RunningWake, Done: nothing to add
			return
		}
	}
}

// park is the worker-side half of the protocol, called after a Stall or a
// failed readiness gate. parkedAt is stamped before the CAS so the
// watchdog never sees a fresh park with a stale stamp.
func (ws *WorkSteal) park(t *wsTask, shard int) {
	t.parkedAt.Store(ws.ticks.Load())
	if t.state.CompareAndSwap(wsRunning, wsParked) {
		n := ws.Counters.parks.Add(1)
		if ws.tr != nil && n%wsTraceSample == 1 {
			ws.tr.Emit(trace.Event{Actor: int32(t.a.ID), Kind: trace.Park, At: time.Now().UnixNano(), Prev: int64(shard)})
		}
		return
	}
	// A wake fired mid-step (state is RunningWake): the stall is already
	// stale, requeue immediately.
	t.state.Store(wsQueued)
	ws.deques[shard].pushBottom(t)
	ws.token()
}

// watchdog periodically rescues overdue parked tasks. It is the liveness
// backstop for kernels that stall without any hooked link (their stalls
// have no wake source); with hooks installed it should almost never fire —
// Rescues spiking in a report means wakes are being lost.
func (ws *WorkSteal) watchdog(done chan struct{}) {
	tick := time.NewTicker(wsWatchdogTick)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		ws.rescue(ws.ticks.Add(1))
	}
}

// rescue is one watchdog scan at tick count now: it wakes every task parked
// for more than its grace.
func (ws *WorkSteal) rescue(now uint64) {
	// Snapshot the task list: Spawn appends under dynMu, and an append that
	// reallocates leaves this snapshot intact.
	ws.dynMu.Lock()
	tasks := ws.tasks
	ws.dynMu.Unlock()
	for _, t := range tasks {
		if t.state.Load() != wsParked {
			continue
		}
		grace := uint64(wsGraceBare)
		if t.hooked.Load() {
			grace = wsGraceHooked
		}
		if now-t.parkedAt.Load() > grace {
			ws.wake(t, true)
		}
	}
}

// worker is one shard's scheduling loop: drain the local deque bottom-up,
// steal when dry, park on the token channel when the whole system looks
// idle.
func (ws *WorkSteal) worker(id, nw int, done chan struct{}) {
	d := ws.deques[id]
	scratch := make([]*wsTask, ws.stealBatch())
	label := fmt.Sprintf("w%d", id)
	idle := time.NewTimer(wsIdleRecheck)
	defer idle.Stop()
	for {
		t := d.popBottom()
		if t == nil {
			t = ws.steal(id, nw, scratch, label)
		}
		if t == nil {
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(wsIdleRecheck)
			select {
			case <-done:
				return
			case <-ws.tokens:
			case <-idle.C:
			}
			continue
		}
		ws.runTask(t, id)
	}
}

// steal sweeps the other shards from a worker-specific offset and raids
// the first non-empty deque, moving up to StealBatch tasks (at most half
// the victim's queue) into the local deque.
func (ws *WorkSteal) steal(id, nw int, scratch []*wsTask, label string) *wsTask {
	d := ws.deques[id]
	for off := 1; off < nw; off++ {
		victim := (id + off) % nw
		n := ws.deques[victim].stealInto(d, len(scratch), scratch)
		if n == 0 {
			continue
		}
		ws.Counters.steals.Add(1)
		ws.Counters.stolen.Add(uint64(n))
		t := d.popBottom()
		if ws.tr != nil && t != nil {
			ws.tr.Emit(trace.Event{
				Actor: int32(t.a.ID), Kind: trace.Steal, At: time.Now().UnixNano(),
				Prev: int64(victim), Arg: int64(n), Label: label,
			})
		}
		return t
	}
	return nil
}

// runTask runs one quantum of a claimed task, then finishes, parks or
// requeues it.
func (ws *WorkSteal) runTask(t *wsTask, shard int) {
	if !t.state.CompareAndSwap(wsQueued, wsRunning) {
		return // defensive: a Done task can't re-enter a deque, but never double-run
	}
	finished := false
	defer func() {
		if r := recover(); r != nil {
			ws.recordErr(t, fmt.Errorf("kernel %q %w", t.a.Name, core.PanicError(r)))
			finished = true
		}
		if finished {
			t.state.Store(wsDone)
			t.a.Finish()
			t.a.Finished.Store(true)
			ws.taskDone()
		}
	}()
	for i := 0; i < wsQuantum; i++ {
		// Rewrite gate: a held kernel blocks this worker only for the
		// port-rebind instant; a retired one finishes like a Stop.
		if t.a.PollGate() == core.GateStop {
			finished = true
			return
		}
		// Readiness gate: a kernel that would block on a
		// port must not capture this worker — park it and let the link
		// transition bring it back.
		if !t.a.Ready() {
			t.a.Quiesce() // never parked on an open port window
			ws.park(t, shard)
			return
		}
		switch t.a.StepTimed() {
		case core.Proceed:
		case core.Stop:
			finished = true
			return
		case core.Stall:
			ws.park(t, shard)
			return
		}
	}
	// Quantum exhausted: requeue at the top of the shard that ran it (work
	// follows the thief) so peers already waiting go first. The kernel's
	// port windows do not wait in the deque with it.
	t.a.Quiesce()
	t.state.Store(wsQueued)
	ws.deques[shard].pushTop(t)
	ws.token()
}

var (
	_ Scheduler     = (*WorkSteal)(nil)
	_ StatsReporter = (*WorkSteal)(nil)
	_ Spawner       = (*WorkSteal)(nil)
	_ Spawner       = Goroutine{}
)
