package scheduler

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	// StealBatch caps how many tasks one steal moves (defaults to 8; the
	// steal still takes at most half the victim's queue).
	StealBatch int

	// Counters is the shared stats block.
	Counters *counters

	nw   int
	topo mapper.Topology
	tr   *trace.Recorder

	deques     []*stealDeque
	tokens     chan struct{}
	crossShard atomic.Int32
	// ticks counts the watchdog's scans; parks stamp it.
	ticks atomic.Uint64
	// done stops the workers and the watchdog; wg waits for them.
	done chan struct{}
	wg   sync.WaitGroup

	// dynMu guards the run state Spawn extends and Wait ends: the task list
	// (the watchdog's scan set) and its index by actor ID, the installed
	// hooks (Wait detaches them), the unfinished-task count standing in
	// for a WaitGroup (Add racing Wait-at-zero is illegal on WaitGroup),
	// and whether the workers run.
	dynMu    sync.Mutex
	pendCond sync.Cond
	pendingN int
	started  bool
	stopped  bool
	tasks    []*wsTask
	byID     []*wsTask
	hooks    []*wsHook

	errMu sync.Mutex
	errs  []error
}

// NewWorkSteal returns an empty work-stealing scheduler with the given
// worker count (0 = GOMAXPROCS). topo is the mapper's topology, which
// shard assignment follows (a zero one keeps construction order); rec,
// when non-nil, receives Steal, Park and Wake events. Build every
// WorkSteal with it.
func NewWorkSteal(workers int, topo mapper.Topology, rec *trace.Recorder) *WorkSteal {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ws := &WorkSteal{
		nw: workers, topo: topo, tr: rec,
		Counters: &counters{},
		deques:   make([]*stealDeque, workers),
		tokens:   make(chan struct{}, workers),
		done:     make(chan struct{}),
	}
	ws.pendCond.L = &ws.dynMu
	for i := range ws.deques {
		ws.deques[i] = newStealDeque(0)
	}
	return ws
}

// Name implements Scheduler.
func (ws *WorkSteal) Name() string { return fmt.Sprintf("worksteal-%d", ws.nw) }

func (ws *WorkSteal) stealBatch() int {
	if ws.StealBatch > 0 {
		return ws.StealBatch
	}
	return 8
}

// SchedStats snapshots the scheduler's counters. It is safe concurrently
// with the run: the live-stats streamer and the metrics endpoint poll it.
func (ws *WorkSteal) SchedStats() Stats {
	s := Stats{
		Scheduler:       ws.Name(),
		Workers:         ws.nw,
		CrossShardLinks: int(ws.crossShard.Load()),
	}
	ws.Counters.snapshot(&s)
	return s
}

// Spawn implements Scheduler. It starts the batch's actors (failures and
// virtual kernels finish at once and never enter a deque), gives the rest
// their home shards (placement), wires the batch's links to the park/wake
// protocol, wakes a running consumer of a new link (it may have taken up
// the stream before the hook was in place), and queues the new tasks. The
// first batch with a task starts the workers and the watchdog.
func (ws *WorkSteal) Spawn(actors []*core.Actor, links []*core.LinkInfo) error {
	ws.dynMu.Lock()
	if ws.stopped {
		ws.dynMu.Unlock()
		return errCompleted
	}
	ws.pendingN += len(actors)
	ws.dynMu.Unlock()

	// The batch's tasks are one slab. A task reads as done until it is
	// queued below: a wake has nothing to add to that, and the watchdog
	// claims only parked tasks.
	slab := make([]wsTask, len(actors))
	live := make([]*wsTask, 0, len(actors))
	for i, a := range actors {
		t := &slab[i]
		t.a = a
		t.state.Store(wsDone)
		if run, err := a.Start(); !run {
			if err != nil {
				ws.recordErr(err)
			}
			ws.taskDone()
			continue
		}
		live = append(live, t)
	}

	ws.dynMu.Lock()
	defer ws.dynMu.Unlock()
	if ws.stopped { // only a batch none of whose actors started can meet a finished run
		return errCompleted
	}
	ws.placement(live)
	ws.tasks = append(ws.tasks, live...)
	for _, h := range ws.wire(links) {
		if h.dst != nil {
			ws.wake(h.dst)
		}
	}
	if len(live) == 0 {
		return nil
	}
	for _, d := range ws.deques {
		d.reserve(2 * len(live) / ws.nw)
	}
	for _, t := range live {
		t.state.Store(wsQueued)
		ws.deques[t.home].pushBottom(t)
	}
	for i := 0; i < min(len(live), ws.nw); i++ {
		ws.token()
	}
	if !ws.started {
		ws.started = true
		ws.wg.Add(1 + ws.nw)
		go func() {
			defer ws.wg.Done()
			ws.watchdog()
		}()
		for w := 0; w < ws.nw; w++ {
			go func(w int) {
				defer ws.wg.Done()
				ws.worker(w)
			}(w)
		}
	}
	return nil
}

// Wait implements Scheduler: it waits until every spawned task has
// finished, stops the workers and the watchdog, and detaches the hooks.
func (ws *WorkSteal) Wait() error {
	ws.dynMu.Lock()
	for ws.pendingN > 0 {
		ws.pendCond.Wait()
	}
	ws.stopped = true
	hooks := ws.hooks
	ws.dynMu.Unlock()
	close(ws.done)
	ws.wg.Wait()
	for _, h := range hooks {
		h.q.SetWakeHook(nil)
	}
	ws.errMu.Lock()
	defer ws.errMu.Unlock()
	return errors.Join(ws.errs...)
}

// taskDone retires one task from the pending count; the last one out
// wakes Wait.
func (ws *WorkSteal) taskDone() {
	ws.dynMu.Lock()
	ws.pendingN--
	if ws.pendingN == 0 {
		ws.pendCond.Broadcast()
	}
	ws.dynMu.Unlock()
}

// recordErr files one task's terminal error.
func (ws *WorkSteal) recordErr(err error) {
	ws.errMu.Lock()
	ws.errs = append(ws.errs, err)
	ws.errMu.Unlock()
}

// wsHook is one link's wake hook: a push that makes the queue non-empty
// wakes the consumer, a pop that makes it non-full wakes the producer, and
// close wakes both.
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

// placement assigns each of a batch's tasks its home shard and indexes it
// by actor ID (IDs are dense). With a topology the tasks are ordered by
// their mapper place's (node, socket, core) key and split into contiguous
// equal-count shards, so kernels the mapper co-located (it already
// minimizes latency-weighted cut cost, with cross-socket edges the
// expensive ones) land on the same shard and their links never cross
// deques; unmapped kernels keep construction order at the tail. Without
// one the same contiguous split over construction order degrades to
// blocked round-robin, which still keeps pipeline neighbours together. The
// split starts at the shard after the tasks already placed, so epoch 0
// starts at shard 0 and a rewrite's lone kernel goes round-robin. Callers
// hold dynMu.
func (ws *WorkSteal) placement(tasks []*wsTask) {
	if len(tasks) == 0 {
		return
	}
	ord := tasks
	if places := ws.topo.Places; len(places) > 0 {
		ord = slices.Clone(tasks)
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
	base := len(ws.tasks)
	for i, t := range ord {
		t.home = (base + i*ws.nw/len(ord)) % ws.nw
	}
	maxID := -1
	for _, t := range tasks {
		maxID = max(maxID, t.a.ID)
	}
	if maxID >= len(ws.byID) {
		ws.byID = slices.Grow(ws.byID, maxID+1-len(ws.byID))[:maxID+1]
	}
	for _, t := range tasks {
		if t.a.ID >= 0 {
			ws.byID[t.a.ID] = t
		}
	}
}

// task returns the task of actor id, or nil. Callers hold dynMu.
func (ws *WorkSteal) task(id int) *wsTask {
	if id < 0 || id >= len(ws.byID) {
		return nil
	}
	return ws.byID[id]
}

// wire installs a batch's links into the park/wake protocol (wsHook, the
// batch's hooks one slab) and returns the installed hooks. A link whose
// ends landed on different shards is counted and, because every element
// crossing it pays a handoff between workers, given an initial
// transfer-batch hint so it amortizes the crossing. Callers hold dynMu.
func (ws *WorkSteal) wire(links []*core.LinkInfo) []*wsHook {
	slab := make([]wsHook, len(links))
	hooks := make([]*wsHook, 0, len(links))
	cross := 0
	for i, l := range links {
		src, dst := ws.task(l.SrcActor), ws.task(l.DstActor)
		if src != nil && dst != nil && src.home != dst.home {
			cross++
			l.Batch.Hint(min(32, l.Queue.Cap()/2))
		}
		h := &slab[i]
		h.ws = ws
		if h.hook(l, src, dst) {
			hooks = append(hooks, h)
		}
	}
	ws.crossShard.Add(int32(cross))
	ws.hooks = append(ws.hooks, hooks...)
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
// failed readiness gate. It marks the actor parked for the deadlock watch
// before the park can be seen, so a wake and the next step, which clears
// the mark, always come after it; the watchdog's looks leave it set.
func (ws *WorkSteal) park(t *wsTask, shard int) {
	t.a.Parked.Store(true)
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
func (ws *WorkSteal) watchdog() {
	tick := time.NewTicker(wsWatchdogTick)
	defer tick.Stop()
	for {
		select {
		case <-ws.done:
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
	// Snapshot the task and hook lists: Spawn appends under dynMu, and an append that reallocates leaves this snapshot intact.
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
func (ws *WorkSteal) worker(id int) {
	d := ws.deques[id]
	scratch := make([]*wsTask, ws.stealBatch())
	label := fmt.Sprintf("w%d", id)
	idle := time.NewTimer(wsIdleRecheck)
	defer idle.Stop()
	for {
		t := d.popBottom()
		if t == nil {
			t = ws.steal(id, scratch, label)
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
			case <-ws.done:
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
func (ws *WorkSteal) steal(id int, scratch []*wsTask, label string) *wsTask {
	d := ws.deques[id]
	for off := 1; off < ws.nw; off++ {
		victim := (id + off) % ws.nw
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
	if t.a.Parked.Load() {
		t.a.Parked.Store(false)
	}
	finished := false
	defer func() {
		var err error
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel %q %w", t.a.Name, core.PanicError(r))
			ws.recordErr(err)
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
