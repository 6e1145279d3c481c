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

	// Init, if non-nil, runs once before the first Step.
	Init func() error
	// Step performs one kernel invocation.
	Step func() Status
	// Finish, if non-nil, runs once after the final Step (regardless of
	// whether the actor stopped voluntarily or the engine shut it down);
	// it must close the actor's output queues.
	Finish func()

	// Service accumulates per-invocation service times; the monitor reads
	// it to estimate service rates for bottleneck detection and modeling.
	Service stats.ServiceTimer

	// Virtual marks actors that complete instantly (e.g. the paper's
	// for_each source, which "appears as a kernel only momentarily",
	// §4.2): the engine runs Finish immediately and never schedules Step.
	Virtual bool

	// Ready, when non-nil, reports whether one Step can make progress
	// without blocking (inputs have data or are closed; outputs have
	// space or are closed). Cooperative schedulers consult it before
	// dispatching so a blocked kernel cannot capture a pooled worker;
	// the goroutine-per-kernel scheduler ignores it.
	Ready func() bool

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

// StepTimed invokes Step, counts the invocation, and times it if it is an
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
		st := a.Step()
		a.Service.Step()
		return st
	}
	return a.stepObserved()
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
	st := a.Step()
	d := time.Since(start)
	if traced {
		a.Trace.Record(a.TraceID, trace.RunEnd, start.UnixNano()+int64(d))
	}
	d = max(d-clockSkew, 0)
	a.Service.Step()
	a.Service.Observe(d, uint64(max(a.obsWeight, 1)))

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
// widens or narrows the number of active replicas through it (the paper's
// automatic parallelization, §4.1).
type Scaler interface {
	// Name identifies the group in reports.
	Name() string
	// Active returns the number of currently active replicas.
	Active() int
	// Max returns the replica ceiling chosen at graph construction.
	Max() int
	// SetActive requests n active replicas (clamped to [1, Max]).
	SetActive(n int)
	// InputLink returns the engine link feeding the group's distributor,
	// whose pressure drives scale-up decisions; may be nil for sources.
	InputLink() *LinkInfo
	// OutputLink returns the engine link draining the group's collector;
	// may be nil for sinks.
	OutputLink() *LinkInfo
}
