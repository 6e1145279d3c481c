package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"raftlib/internal/ringbuffer"
	"raftlib/internal/stats"
	"raftlib/internal/trace"
)

// Actor is the engine's view of one schedulable compute kernel. The raft
// package wraps each user kernel into an Actor; the engine and schedulers
// never see kernel types directly.
type Actor struct {
	// ID is the actor's index within the engine (dense, 0-based).
	ID int
	// Name is a human-readable label used in reports and errors.
	Name string
	// Place is the mapper-assigned resource (index into the topology's
	// place list); -1 when unmapped.
	Place int
	// Weight is the relative compute cost estimate used by the mapper.
	Weight float64

	// Init, if non-nil, runs once before the first invocation.
	Init func() error
	// Runner performs one kernel invocation: the raft package binds the
	// kernel itself, or a wrapper around it (fault hook, supervisor). Step
	// does instead on an actor built without one (a probe, a test).
	Runner Runner
	Step   func() Status
	// Life, if non-nil, is the kernel's side of the actor's lifecycle
	// besides its steps: the readiness predicate and the teardown (see
	// Ready and Finish).
	Life Lifecycle

	// Service accumulates per-invocation service times; the monitor reads
	// it to estimate service rates for bottleneck detection and modeling.
	Service stats.ServiceTimer

	// Virtual marks actors that complete instantly (e.g. the paper's
	// for_each source, which "appears as a kernel only momentarily",
	// §4.2): the engine runs Finish immediately and never schedules Step.
	Virtual bool

	// Restarts counts supervised recoveries of this actor: each time the
	// resilience supervisor absorbs a panic and restarts the kernel the
	// counter advances. It doubles as a progress signal for the deadlock
	// watch (a kernel sleeping through restart backoff is alive, not
	// frozen) and feeds the restart columns of reports and LiveStats.
	Restarts stats.Counter

	// Finished is set by the scheduler once the actor's lifecycle ends;
	// the monitor's deadlock detector ignores finished actors.
	Finished atomic.Bool

	// Gate, when non-nil, lets the runtime hold the actor at a step
	// boundary (graph-rewrite splices) or retire it mid-run. Schedulers
	// poll it between invocations; the open-gate cost is one atomic load.
	Gate *Gate

	// Trace, when non-nil, receives RunStart/RunEnd events for sampled
	// invocations (and restart/checkpoint events from the supervisor).
	// TraceID is the actor id used on the bus — it matches ID for plain
	// actors but replicas of one kernel share their group's id.
	Trace   *trace.Recorder
	TraceID int32
	// TraceStride spaces Run spans: an observed invocation (see StepTimed)
	// emits its RunStart/RunEnd pair when at least TraceStride invocations
	// have run since the last one that did (0 and 1 both mean every
	// observed invocation). Structural events — restarts, checkpoints,
	// resizes — are never sampled; only the high-frequency Run spans are.
	TraceStride uint32

	// Windows, when non-nil, is the kernel whose port windows (see
	// ringbuffer/window.go) this actor's steps open. Quiesce retires them;
	// StepTimed calls it when a step does not return Proceed and once the
	// steps since the last retire add up to windowHoldNanos of estimated
	// kernel time, and schedulers and the supervisor call it wherever the
	// kernel stops running for any other reason (gate pause, park, requeue,
	// restart back-off, checkpoint).
	Windows ringbuffer.WindowOwner
	// holdSteps is how many invocations may pass between two retires, from
	// the last observed duration (0 or 1: retire after every invocation);
	// holdLeft counts the current hold down.
	holdSteps uint32
	holdLeft  uint32

	// Observation state of StepTimed, touched only by the actor's own
	// goroutine. unobserved counts down the invocations that run without a
	// clock read; the one that finds it at zero is observed and enters
	// Service with weight obsWeight (zero on the very first, which counts
	// once). nextSpan is the run count from which an observed invocation
	// emits a Run span; jitter is the xorshift state behind the countdowns.
	unobserved uint32
	obsWeight  uint32
	jitter     uint32
	nextSpan   uint64
}

// Runner is the kernel side of one invocation; a raft kernel is one.
type Runner interface{ Run() Status }

// StepFunc adapts a function to a Runner.
type StepFunc func() Status

func (f StepFunc) Run() Status { return f() }

// Invocation is what one step of the actor runs: its Runner, or its Step
// as one. A wrapper (the supervisor) wraps it and becomes the Runner.
func (a *Actor) Invocation() Runner {
	if a.Runner != nil {
		return a.Runner
	}
	return StepFunc(a.Step)
}

// Lifecycle is what a scheduler asks of the kernel behind an actor besides
// its steps. The raft package implements it on its registry entries, so an
// actor carries it without a closure of its own.
type Lifecycle interface {
	// Ready reports whether one Step can make progress without blocking
	// (inputs have data or are closed; outputs have space or are closed).
	// Cooperative schedulers consult it before dispatching so a blocked
	// kernel cannot capture a pooled worker; the goroutine-per-kernel
	// scheduler ignores it.
	Ready() bool
	// Finish runs once after the final Step (regardless of whether the
	// actor stopped voluntarily or the engine shut it down); it must close
	// the actor's output queues.
	Finish()
}

// Ready is Life.Ready; an actor without a Lifecycle is always ready.
func (a *Actor) Ready() bool { return a.Life == nil || a.Life.Ready() }

// Finish is Life.Finish, if the actor has a Lifecycle.
func (a *Actor) Finish() {
	if a.Life != nil {
		a.Life.Finish()
	}
}

const (
	// observeBudgetNanos bounds what timing may cost: an observation (two
	// clock reads and a weighted histogram record, ~120 ns on the reference
	// host) is taken about once per observeBudgetNanos of measured kernel
	// time, so it stays near 3 % of the kernel it observes. An invocation
	// that took more than half of this is followed by an observed one.
	observeBudgetNanos = 4096
	// maxObserveGap caps the mean distance between observed invocations,
	// however short they are: a kernel whose service time changes is
	// noticed within a few times 64 invocations, and a short-lived one
	// still leaves a histogram.
	maxObserveGap = 64

	// windowHoldNanos bounds how long a kernel that keeps running may sit on
	// an open port window — output written but not committed, input read but
	// not released — measured in its own estimated run time: invocations
	// since the last retire times the last observed duration. That is the
	// latency a window can add to an element; blocking adds none, because a
	// kernel retires its windows before it sleeps on a port. A kernel whose
	// invocations take more than half of this retires after every one, so a
	// stage stepping in ~10 µs or more commits each invocation's output as
	// it did before windows existed. The estimate lags a kernel that slows
	// down by the observation gap, at most a few times maxObserveGap of its
	// new invocations.
	windowHoldNanos = 16384
	// minHoldStepNanos floors the duration the hold is computed from, so an
	// invocation observed at (clock-corrected) zero does not buy an unbounded
	// hold: at most windowHoldNanos/minHoldStepNanos = 256 invocations pass
	// between retires.
	minHoldStepNanos = 64

	// MaxWindow is the default length of a port window, for a link whose
	// BatchControl holds no decision and no pin (a pinned link — AsLowLatency
	// pins 1 — and a link the batcher has sized use that value; the ring
	// further limits any window to half its capacity). It bounds how many
	// elements ride on one ring synchronisation, and so how many a consumer
	// may have to wait for: at 16 the lock, the counters and the condition
	// signal cost about 6 ns an element. A longer window buys throughput on
	// a saturated pipeline (16/24/32/48/64: 8.1/10.2/11.7/12.5/14.2 M
	// items/s on `scalar`, EXPERIMENTS PR 19) at the price of a
	// proportionally longer wait for the commit, and of a rate that is no
	// longer the library's: from 32 up the kernels outrun the ring and
	// `scalar` runs at whatever its own closures' cache-line sharing and the
	// Go scheduler's placement allow (11.5 or 14 M at 32 for the same source,
	// by where the heap put three counters), with run-to-run spread to match.
	// At 16 the ring visit is the bottleneck in every layout, which is what
	// a default should be measured by; a longer window is the adaptive
	// batcher's to choose per link.
	MaxWindow = 16
)

// clockSkew is what a time.Now/time.Since pair measures around nothing:
// the part of the two clock reads that falls inside the interval they
// time. Observed durations are corrected by it, because an observation
// that stands for 64 invocations would otherwise charge all of them for a
// clock only one of them read.
var clockSkew = func() time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 64; i++ {
		start := time.Now()
		best = min(best, time.Since(start))
	}
	return best
}()

// StepTimed performs one invocation, counts it, and times it if it is an
// observed one. Counting is exact and clock-free: Service.Count advances on
// every invocation. Timing is budgeted. The first invocation is observed;
// an observed invocation of duration d sets the rate for those that follow,
// each of which is observed with probability 1/r, r = observeBudgetNanos/d
// held to [1, maxObserveGap] — so a kernel stepping in microseconds or more
// is timed on every invocation and one stepping in tens of nanoseconds
// about once in 64. The coin is flipped as one geometric countdown, which
// cannot lock onto a period in the kernel (a batch boundary every 64th
// step), and an observed duration enters Service with weight r. Weighting
// by the inverse of a probability fixed before the invocation ran keeps
// Service's mean, quantiles and busy time unbiased over all invocations,
// whatever the kernel's durations do (weighting by the realised gap would
// not: the first long step after many short ones would stand for the short
// ones too).
//
// Only an observed invocation reads the clock (once per edge), and only an
// observed invocation can emit a Run span, from the same two reads.
func (a *Actor) StepTimed() Status {
	if a.unobserved != 0 {
		a.unobserved--
		st := a.Invocation().Run()
		a.Service.Step()
		a.held(st)
		return st
	}
	return a.stepObserved()
}

// held accounts one invocation against the window hold: the kernel keeps
// its port windows across it only if it returned Proceed and the hold has
// invocations left.
func (a *Actor) held(st Status) {
	if st == Proceed && a.holdLeft > 1 {
		a.holdLeft--
		return
	}
	a.Quiesce()
}

// Quiesce retires the kernel's port windows and starts a new hold. Callers
// are on the actor's own goroutine, at a point where its kernel is not
// inside Run. It is kept out of line so that held, which runs on every
// invocation and almost never gets here, inlines into StepTimed.
//
//go:noinline
func (a *Actor) Quiesce() {
	if a.Windows != nil {
		a.Windows.RetireAll()
	}
	a.holdLeft = a.holdSteps
}

// PollGate is Gate.Poll at a step boundary, for schedulers: an actor that is
// about to be held or retired gives up its windows first, so whoever paused
// it finds every element either in a ring or not yet produced.
func (a *Actor) PollGate() GateAction {
	if a.Gate == nil || a.Gate.Open() {
		return GateProceed
	}
	a.Quiesce()
	return a.Gate.Poll()
}

// stepObserved is the timed slow path of StepTimed.
func (a *Actor) stepObserved() Status {
	traced := false
	if a.Trace != nil {
		if runs := a.Service.Count(); runs >= a.nextSpan {
			traced = true
			a.nextSpan = runs + uint64(a.TraceStride)
		}
	}
	start := time.Now()
	if traced {
		a.Trace.Record(a.TraceID, trace.RunStart, start.UnixNano())
	}
	st := a.Invocation().Run()
	d := time.Since(start)
	if traced {
		a.Trace.Record(a.TraceID, trace.RunEnd, start.UnixNano()+int64(d))
	}
	d = max(d-clockSkew, 0)
	a.Service.Step()
	a.Service.Observe(d, uint64(max(a.obsWeight, 1)))
	// The hold follows the newest observation at once: a kernel that just
	// took long (or blocked) retires now and after every invocation until
	// one is observed short again.
	a.holdSteps = uint32(windowHoldNanos / max(d, minHoldStepNanos))
	a.holdLeft = min(a.holdLeft, a.holdSteps)
	a.held(st)

	rate := uint32(maxObserveGap)
	if d >= observeBudgetNanos/maxObserveGap {
		rate = max(uint32(observeBudgetNanos/d), 1)
	}
	a.obsWeight = rate
	if rate > 1 {
		// xorshift32, seeded on first use; u is uniform on (0, 1) and the
		// quotient of logs a geometric number of failures before a success
		// of probability 1/rate.
		x := a.jitter
		if x == 0 {
			x = uint32(a.ID)*2654435761 | 1
		}
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		a.jitter = x
		u := (float64(x) + 0.5) / (1 << 32)
		a.unobserved = uint32(math.Log(u) / math.Log1p(-1/float64(rate)))
	}
	return st
}

// LinkInfo is the engine's view of one stream (queue) between two actors.
type LinkInfo struct {
	// ID is the link's index within the engine (dense, 0-based).
	ID int
	// Name is a human-readable "src.port -> dst.port" label.
	Name string
	// Queue is the untyped view of the stream's FIFO.
	Queue ringbuffer.Queue
	// SrcActor and DstActor are actor IDs (or -1 for external endpoints,
	// e.g. a TCP peer).
	SrcActor, DstActor int
	// Occupancy accumulates monitor samples of queue length.
	Occupancy stats.Occupancy
	// ResizeEnabled gates the monitor's dynamic resize rules for this link.
	ResizeEnabled bool
	// MaxCap bounds monitor-driven growth (0 = unbounded).
	MaxCap int
	// LatencyClass is the mapper's estimate of the cost of crossing this
	// link (e.g. same-core, cross-socket, TCP); informational.
	LatencyClass string
	// Batch publishes the adaptive batcher's chosen transfer size for this
	// link; adapters and bridges consult it on their hot path. Nil when the
	// engine predates allocation (tests building LinkInfo by hand).
	Batch *BatchControl
	// LatencyPriority marks a link whose consumers need elements as soon as
	// they exist: the batcher bypasses it (batch pinned at 1).
	LatencyPriority bool
	// BestEffort marks a link running the drop/latest-wins overflow policy
	// (AsBestEffort): the monitor's drop watcher only polls links that have
	// it set.
	BestEffort bool
}

func (l *LinkInfo) String() string {
	return fmt.Sprintf("link %d [%s] cap=%d len=%d", l.ID, l.Name, l.Queue.Cap(), l.Queue.Len())
}

// BatchControl publishes the transfer batch size chosen for one link. The
// monitor's adaptive batcher writes it; split/merge adapters, bridges and
// batch-aware kernels read it lock-free on their hot paths. A value of 0
// means "no decision yet": readers fall back to their static default. Pinned
// controls (latency-priority links) are never changed by the monitor.
type BatchControl struct {
	n      atomic.Int32
	pinned atomic.Bool
}

// Get returns the current batch size (0 = no decision; nil-safe).
func (b *BatchControl) Get() int {
	if b == nil {
		return 0
	}
	return int(b.n.Load())
}

// Set publishes a new batch size (values < 1 are clamped to 1).
func (b *BatchControl) Set(n int) {
	if n < 1 {
		n = 1
	}
	b.n.Store(int32(n))
}

// Hint publishes n as the link's initial batch size only if no decision
// exists yet (Get() == 0) and the control is not pinned, reporting whether
// it applied. Nil-safe. Placement-time advisors (the work-stealing
// scheduler's cross-shard hints) use it so they seed a starting point
// without overriding the adaptive batcher or a user pin.
func (b *BatchControl) Hint(n int) bool {
	if b == nil || b.pinned.Load() {
		return false
	}
	if n < 1 {
		n = 1
	}
	return b.n.CompareAndSwap(0, int32(n))
}

// Pin fixes the batch size permanently; the monitor skips pinned controls.
func (b *BatchControl) Pin(n int) {
	b.Set(n)
	b.pinned.Store(true)
}

// Pinned reports whether the control is exempt from adaptive changes.
func (b *BatchControl) Pinned() bool { return b != nil && b.pinned.Load() }

// Scaler is a control handle for a replicated kernel group: the monitor
// widens or narrows the group through it, one replica per step (the
// paper's automatic parallelization, §4.1).
type Scaler interface {
	// Name identifies the group in reports.
	Name() string
	// Active returns the number of live replicas.
	Active() int
	// Max returns the replica ceiling chosen at graph construction.
	Max() int
	// Stepping reports whether a width step is in flight.
	Stepping() bool
	// Step starts one width step — delta is +1 or -1 — off the caller's
	// goroutine, unless one is already in flight. committed runs once the
	// step has committed, with the width before and after; a step that
	// fails changes nothing and does not call it.
	Step(delta int, committed func(from, to int))
	// InputLink returns the engine link feeding the group's distributor,
	// whose pressure drives scale-up decisions; may be nil for sources.
	InputLink() *LinkInfo
}
