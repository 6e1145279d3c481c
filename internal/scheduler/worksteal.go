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
//	Parked --wake--> Queued --worker pop--> Running
//	Parked --watchdog claim--> Running --ready--> Queued (a rescue)
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
	a        *core.Actor
	idx      int // index into Run's actors slice (error slot)
	home     int // shard whose deque wakes re-enqueue to
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
	// wsWatchdogTick is the rescue scan period. A parked task is looked at
	// by the first scan more than wsGrace whole ticks after its stamp
	// (5–10 ms); a wake under way is waited for up to wsLate ticks (1 s).
	wsWatchdogTick = 5 * time.Millisecond
	wsGrace        = 1
	wsLate         = 200
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

	// Counters is the shared stats block.
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
	ready chan struct{}

	// dynMu guards the dynamic run state: the live task list (watchdog
	// scan set, extended by Spawn), the unfinished-task count standing in
	// for a WaitGroup (Add racing Wait-at-zero is illegal on WaitGroup),
	// and the installed hooks (Run detaches them on the way out).
	dynMu    sync.Mutex
	pendCond *sync.Cond
	pendingN int
	stopped  bool
	tasks    []*wsTask
	hooks    []*wsHook

	errMu sync.Mutex
	errs  []error
}

// NewWorkSteal returns a work-stealing scheduler with the given worker
// count (0 = GOMAXPROCS). Build every WorkSteal with it.
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

// SchedStats snapshots the scheduler's counters. It is safe concurrently
// with Run: the live-stats streamer and the metrics endpoint poll it.
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
	nw := ws.workers()
	ws.nw = nw
	ws.pendCond = sync.NewCond(&ws.dynMu)
	ws.errs = make([]error, len(actors))

	// Initialize all actors up front: failures and virtual kernels finish
	// immediately and never enter a deque. The tasks are one slab.
	slab := make([]wsTask, len(actors))
	live := make([]*wsTask, 0, len(actors))
	for i, a := range actors {
		run, err := a.Start()
		if !run {
			ws.errs[i] = err
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
		close(ws.ready)
		return errors.Join(ws.errs...)
	}

	ws.placement(live, nw)
	ws.hooks = append(ws.hooks, ws.installHooks(live)...)
	defer func() {
		ws.dynMu.Lock()
		hooks := ws.hooks
		ws.dynMu.Unlock()
		for _, h := range hooks {
			h.q.SetWakeHook(nil)
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
	close(ws.ready) // Spawn/TakeLink may proceed from here

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

// Spawn implements Scheduler: a rewrite transaction hands the running
// scheduler a freshly-built actor. The task joins a shard deque chosen
// round-robin (locality for dynamic kernels comes from the wake hooks,
// not placement) and is woken like any queued task. Blocks until Run has
// built the deques; fails once the execution has completed.
func (ws *WorkSteal) Spawn(a *core.Actor) error {
	<-ws.ready
	t := &wsTask{a: a, idx: -1}
	// Running until Start returns: the watchdog claims only parked tasks,
	// and a zero state would read as one parked since tick 0.
	t.state.Store(wsRunning)
	ws.dynMu.Lock()
	if ws.stopped {
		ws.dynMu.Unlock()
		return errors.New("scheduler: execution already completed")
	}
	ws.pendingN++
	t.home = len(ws.tasks) % ws.nw
	ws.tasks = append(ws.tasks, t)
	ws.dynMu.Unlock()

	if run, err := a.Start(); !run {
		if err != nil {
			ws.recordErr(t, err)
		}
		t.state.Store(wsDone)
		ws.taskDone()
		return err
	}
	t.state.Store(wsQueued)
	ws.deques[t.home].pushBottom(t)
	ws.token()
	return nil
}

// TakeLink wires a dynamically-added link's queue into the park/wake
// protocol, exactly as installHooks does for the initial link table, and
// wakes the link's consumer, which may have taken up the stream before its
// hook was in place. The hook is detached with the others when Run returns.
func (ws *WorkSteal) TakeLink(l *core.LinkInfo) {
	<-ws.ready
	hk := &wsHook{ws: ws}
	dst := ws.findTask(l.DstActor)
	if hk.hook(l, ws.findTask(l.SrcActor), dst) {
		ws.dynMu.Lock()
		ws.hooks = append(ws.hooks, hk)
		ws.dynMu.Unlock()
	}
	if dst != nil {
		ws.wake(dst)
	}
}

// wsHook is one link's wake hook: a push that makes the queue non-empty
// wakes the consumer, a pop that makes it non-full wakes the producer, and
// close wakes both. installHooks lays the hooks of the initial link table
// out in one slab.
type wsHook struct {
	ws       *WorkSteal
	src, dst *wsTask
	q        ringbuffer.WakeHooker
}

// hook installs h on l's queue with the given end tasks, or reports false
// when the queue takes no hooks or neither end is a task.
func (h *wsHook) hook(l *core.LinkInfo, src, dst *wsTask) bool {
	q, ok := l.Queue.(ringbuffer.WakeHooker)
	if !ok || src == nil && dst == nil {
		return false
	}
	h.src, h.dst, h.q = src, dst, q
	q.SetWakeHook(h)
	return true
}

// OnWake implements ringbuffer.WakeHook. Hook contract: no blocking, no
// queue re-entry. wake does CAS + deque mutex + non-blocking token send
// only.
func (h *wsHook) OnWake(w ringbuffer.Wake) {
	if h.src != nil && w != ringbuffer.WakeNotEmpty {
		h.ws.wake(h.src)
	}
	if h.dst != nil && w != ringbuffer.WakeNotFull {
		h.ws.wake(h.dst)
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
// protocol (wsHook). Returns the installed hooks, which Run detaches on
// the way out.
func (ws *WorkSteal) installHooks(tasks []*wsTask) []*wsHook {
	byID := ws.tasksByID(tasks)
	slab := make([]wsHook, len(ws.links))
	hooks := make([]*wsHook, 0, len(ws.links))
	for i, l := range ws.links {
		h := &slab[i]
		h.ws = ws
		if h.hook(l, taskFor(byID, l.SrcActor), taskFor(byID, l.DstActor)) {
			hooks = append(hooks, h)
		}
	}
	return hooks
}

// wakeUnderWay reports whether a hooked ring at one of t's ends has a wake
// for t under way.
func wakeUnderWay(hooks []*wsHook, t *wsTask) bool {
	for _, h := range hooks {
		if h.dst == t && h.q.WakePending(false) || h.src == t && h.q.WakePending(true) {
			return true
		}
	}
	return false
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

// wake transitions a task toward Queued in response to a link transition.
// Safe from any goroutine, including under a ring's internal lock.
func (ws *WorkSteal) wake(t *wsTask) {
	for {
		switch t.state.Load() {
		case wsParked:
			if !t.state.CompareAndSwap(wsParked, wsQueued) {
				continue // raced another waker; re-inspect
			}
			ws.enqueue(t, false)
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

// enqueue pushes a task in state Queued onto its home shard, counted as a
// wake or a rescue.
func (ws *WorkSteal) enqueue(t *wsTask, rescue bool) {
	var n uint64
	var arg int64 // the trace event's rescue flag
	if rescue {
		n, arg = ws.Counters.rescues.Add(1), 1
	} else {
		n = ws.Counters.wakes.Add(1)
	}
	ws.deques[t.home].pushBottom(t)
	ws.token()
	if ws.tr != nil && n%wsTraceSample == 1 {
		ws.tr.Emit(trace.Event{Actor: int32(t.a.ID), Kind: trace.Wake, At: time.Now().UnixNano(), Arg: arg})
	}
}

// park is the worker-side half of the protocol, called after a Stall or a
// failed readiness gate.
func (ws *WorkSteal) park(t *wsTask, shard int) {
	if !ws.settle(t, shard, ws.ticks.Load()) {
		return
	}
	n := ws.Counters.parks.Add(1)
	if ws.tr != nil && n%wsTraceSample == 1 {
		ws.tr.Emit(trace.Event{Actor: int32(t.a.ID), Kind: trace.Park, At: time.Now().UnixNano(), Prev: int64(shard)})
	}
}

// settle parks the running task t with the given parkedAt stamp (stored
// before the CAS, so the watchdog never sees a fresh park with a stale
// one), or requeues it on shard if a wake fired while it ran.
func (ws *WorkSteal) settle(t *wsTask, shard int, stamp uint64) bool {
	t.parkedAt.Store(stamp)
	if t.state.CompareAndSwap(wsRunning, wsParked) {
		return true
	}
	t.state.Store(wsQueued)
	ws.deques[shard].pushBottom(t)
	ws.token()
	return false
}

// watchdog periodically looks at overdue parked tasks (rescue). It is the
// liveness backstop for kernels that stall without any hooked link and for
// lost wakes; Rescues spiking in a report means wakes are being lost.
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

// rescue is one watchdog scan at tick count now. It claims each task parked
// for more than wsGrace ticks as a worker would, and asks what a worker
// asks. A held or retired gate queues it as a wake (its controller waits at
// the boundary). A task not Ready parks again, freshly stamped. A Ready one
// whose ring has its wake under way (the other end was preempted between
// its commit and the hook) parks again with its old stamp, for up to
// wsLate ticks. Any other Ready task was owed a wake that was lost, or
// waits on no hooked ring: it is queued as a rescue. Parking again counts
// no park.
func (ws *WorkSteal) rescue(now uint64) {
	// Snapshot the task and hook lists: Spawn and TakeLink append under
	// dynMu, and an append that reallocates leaves this snapshot intact.
	ws.dynMu.Lock()
	tasks, hooks := ws.tasks, ws.hooks
	ws.dynMu.Unlock()
	for _, t := range tasks {
		stamp := t.parkedAt.Load()
		if t.state.Load() != wsParked || now-stamp <= wsGrace ||
			!t.state.CompareAndSwap(wsParked, wsRunning) {
			continue
		}
		switch {
		case t.a.Gate != nil && !t.a.Gate.Open():
			t.state.Store(wsQueued)
			ws.enqueue(t, false)
		case !t.a.Ready():
			ws.settle(t, t.home, now)
		case now-stamp <= wsLate && wakeUnderWay(hooks, t):
			ws.settle(t, t.home, stamp)
		default:
			// A hook that fired during the look (RunningWake) was not lost.
			rescued := t.state.CompareAndSwap(wsRunning, wsQueued)
			t.state.Store(wsQueued)
			ws.enqueue(t, rescued)
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
		var err error
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel %q %w", t.a.Name, core.PanicError(r))
			ws.recordErr(t, err)
			finished = true
		}
		if finished {
			t.state.Store(wsDone)
			t.a.End(err)
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
	_ Scheduler = (*WorkSteal)(nil)
	_ Scheduler = (*Goroutine)(nil)
)
