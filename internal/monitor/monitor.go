// Package monitor implements RaftLib's run-time optimization loop.
//
// The paper (§4.1) describes a monitoring thread updated every δ ← 10 µs
// that (a) samples queue state for the performance instrumentation, (b)
// resizes FIFOs dynamically — growing a queue whose writer has been blocked
// for 3×δ, and handling consumers that request more items than the queue
// can hold — and (c) drives coarser re-optimization such as widening a
// replicated kernel group when it is the bottleneck.
//
// The constants follow the paper's where practical: Delta is 10 µs (Go's
// sleep granularity makes the effective tick a few tens of microseconds on
// most systems, which the occupancy sampler simply reflects), and the
// write-side trigger is WriterBlockedFor() >= 3×Delta.
// Read-side over-demand is satisfied synchronously by the ring itself (see
// internal/ringbuffer).
package monitor

import (
	"slices"
	"sync"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/qmodel"
	"raftlib/internal/trace"
)

// Config selects the monitor's rules and what they read.
type Config struct {
	// Resize enables the dynamic queue resizing rule, which only grows a
	// queue.
	Resize bool
	// AutoScale enables dynamic widening/narrowing of replicated kernel
	// groups via their Scalers.
	AutoScale bool
	// AdaptiveBatch enables the per-link batch-size controller: links whose
	// endpoints demonstrably contend (blocked time accruing, or sustained
	// near-full occupancy) have their transfer batch grown ×4 per window
	// toward BatchMax, amortizing synchronization;
	// links that go idle are halved back toward 1 so latency does not hide
	// in stale batches. Latency-priority links (pinned controls) are
	// bypassed. The ramp is deliberately steep: on loaded hosts the monitor
	// goroutine itself is contended, so windows are scarce.
	AdaptiveBatch bool
	// Trace, when non-nil, additionally publishes every decision on the
	// run's telemetry bus so resizes, batch moves and width changes land
	// on the same timeline as kernel invocations.
	Trace *trace.Recorder
	// Rates, when non-nil with RateControl set, is the online λ̂/µ̂
	// estimator. The monitor drives its Tick and reads a link's estimates
	// by its LinkInfo.ID, the key of the link's estimator tap.
	Rates *qmodel.Estimator
	// RateControl switches the batcher and scaler from the contended-
	// window heuristics to estimator-driven decisions: batch growth
	// starts when ρ̂ crosses rhoGrow or the occupancy derivative predicts
	// a half-full queue within the next batch window (before any
	// blocking), and the replica scaler steps toward the
	// qmodel.MinServersWait width for the measured λ̂ and per-replica µ̂.
	// Links and groups whose estimates are not yet primed fall back to
	// the heuristics, so enabling this is never worse than leaving it off.
	RateControl bool
}

// The monitor's constants. Delta, blockFactor and growFactor are the
// paper's (§4.1).
const (
	// Delta is the monitor tick period δ.
	Delta = 10 * time.Microsecond
	// blockFactor is the write-block multiple of Delta that triggers a
	// grow; growFactor multiplies the capacity on a grow.
	blockFactor = 3
	growFactor  = 2
	// BatchMax caps the adaptive batch size. A link's batch is also capped
	// at half its queue capacity, so one endpoint can never monopolize the
	// whole buffer per hop. batchWindow is the number of ticks between
	// batch decisions.
	BatchMax    = 256
	batchWindow = 32
	// A group widens when its input queue was near-full in at least
	// scaleUpFullFrac of the scaleWindow ticks between scaling decisions.
	scaleUpFullFrac = 0.5
	scaleWindow     = 64
	// rhoGrow is the utilization ρ̂ = λ̂/µ̂ above which a link's batch is
	// grown pre-emptively under RateControl; waitFactor sets the rate
	// scaler's waiting-time target as a multiple of the per-replica mean
	// service time: Wq ≤ waitFactor/µ̂.
	rhoGrow    = 0.7
	waitFactor = 2
)

// linkState carries one link's monitor bookkeeping. Graph rewrites add
// and remove links mid-run, so the state travels with the link record.
type linkState struct {
	l *core.LinkInfo
	// adaptive batcher state
	batchTick  int
	batchFull  int
	batchEmpty int
	// The stream's pushes and block times at the last batch decision.
	prevPushes, prevWriteNs, prevReadNs uint64
	// drop watcher state (best-effort links only)
	dropTick int
	dropSeen uint64
}

// Monitor periodically samples and re-optimizes a running streaming graph.
type Monitor struct {
	cfg     Config
	scalers []core.Scaler

	stop chan struct{}
	done chan struct{}
	once sync.Once

	// linksMu guards the copy-on-write links slice: Tick snapshots the
	// header; AddLinks/RemoveLinks publish a fresh slice, so a tick in
	// flight finishes over the structure it started with.
	linksMu sync.Mutex
	links   []*linkState

	// per-scaler tick state (the scaler set stays static; replication
	// width is its own dynamic axis)
	scaleTick  []int
	fullTicks  []int
	emptyTicks []int

	mu      sync.Mutex
	events  []Event
	ticks   uint64
	resizes uint64

	deadlock *DeadlockWatch
}

// SetDeadlockWatch attaches a freeze detector evaluated every tick. Call
// before Start.
func (m *Monitor) SetDeadlockWatch(w *DeadlockWatch) { m.deadlock = w }

// Event records one monitor decision, for reports and tests.
type Event struct {
	At     time.Time
	Kind   string // "grow", "batch-up", "batch-down", "scale-up", "scale-down", "deadlock", "drop"
	Target string // link or group name
	From   int
	To     int
}

// New builds a Monitor over the engine's scalers. It samples no link until
// a transaction hands it its links (AddLinks).
func New(cfg Config, scalers []core.Scaler) *Monitor {
	return &Monitor{
		cfg:        cfg,
		scalers:    scalers,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		scaleTick:  make([]int, len(scalers)),
		fullTicks:  make([]int, len(scalers)),
		emptyTicks: make([]int, len(scalers)),
	}
}

// AddLinks attaches one transaction's links to the sampling loop: occupancy
// sampling, the resize rules, the adaptive batcher, the drop watcher and,
// under RateControl, the estimator-driven rules. Their state is one slab,
// and the link slice is published once.
func (m *Monitor) AddLinks(links []*core.LinkInfo) {
	slab := make([]linkState, len(links))
	m.linksMu.Lock()
	next := make([]*linkState, len(m.links), len(m.links)+len(links))
	copy(next, m.links)
	for i, l := range links {
		slab[i].l = l
		next = append(next, &slab[i])
	}
	m.links = next
	m.linksMu.Unlock()
}

// RemoveLinks detaches links from the sampling loop (their queues are
// sealed; re-applying resize or batch rules to them would be dead work). A
// tick in flight may sample them once more, which is harmless.
func (m *Monitor) RemoveLinks(links []*core.LinkInfo) {
	m.linksMu.Lock()
	next := make([]*linkState, 0, len(m.links))
	for _, st := range m.links {
		if !slices.Contains(links, st.l) {
			next = append(next, st)
		}
	}
	m.links = next
	m.linksMu.Unlock()
}

// Start launches the monitor goroutine.
func (m *Monitor) Start() {
	go m.loop()
}

// Stop terminates the monitor and waits for the loop to exit. Idempotent.
func (m *Monitor) Stop() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

// Ticks returns the number of monitor iterations executed.
func (m *Monitor) Ticks() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticks
}

// Events returns a copy of the recorded optimization events.
func (m *Monitor) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Resizes returns the number of resize operations performed.
func (m *Monitor) Resizes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resizes
}

// traceKind maps a monitor decision to its telemetry-bus event kind.
var traceKind = map[string]trace.Kind{
	"grow":       trace.QueueGrow,
	"batch-up":   trace.BatchUp,
	"batch-down": trace.BatchDown,
	"scale-up":   trace.ScaleUp,
	"scale-down": trace.ScaleDown,
	"deadlock":   trace.Deadlock,
	"drop":       trace.Drop,
}

func (m *Monitor) record(kind, target string, from, to int) {
	now := time.Now()
	if m.cfg.Trace != nil {
		if k, ok := traceKind[kind]; ok {
			m.cfg.Trace.Emit(trace.Event{
				Actor: -1, Kind: k, At: now.UnixNano(),
				Prev: int64(from), Arg: int64(to), Label: target,
			})
		}
	}
	m.mu.Lock()
	m.events = append(m.events, Event{At: now, Kind: kind, Target: target, From: from, To: to})
	if kind == "grow" {
		m.resizes++
	}
	m.mu.Unlock()
}

func (m *Monitor) loop() {
	defer close(m.done)
	// The pause between ticks ends early on Stop: with every P idle a
	// timer can fire up to a millisecond late, and Stop must not wait it
	// out.
	pause := time.NewTimer(Delta)
	if !pause.Stop() {
		<-pause.C // armed after each tick, so it must start drained
	}
	defer pause.Stop()
	for {
		m.Tick()
		pause.Reset(Delta)
		select {
		case <-m.stop:
			return
		case <-pause.C:
		}
	}
}

// workerLister is implemented by scalers that can report the trace actor
// ids of their replica workers (raft's group scaler does); the rate-driven
// width rule needs them to look up per-replica µ̂.
type workerLister interface {
	WorkerActors() []int32
}

// Tick performs one monitor iteration. Exported so tests (and the ablation
// harness) can drive the monitor deterministically without timing races.
func (m *Monitor) Tick() {
	if m.cfg.Rates != nil {
		// Fold an estimation window if one has elapsed (internally
		// rate-limited, so the per-tick cost is two clock reads).
		m.cfg.Rates.Tick(time.Now())
	}
	const threshold = blockFactor * Delta
	m.linksMu.Lock()
	links := m.links
	m.linksMu.Unlock()
	for _, st := range links {
		l := st.l
		qlen, qcap := l.Queue.Len(), l.Queue.Cap()
		l.Occupancy.Sample(qlen, qcap)

		if m.cfg.AdaptiveBatch {
			m.batchStep(st, qlen, qcap)
		}

		if l.BestEffort {
			m.dropStep(st)
		}

		if !m.cfg.Resize || !l.ResizeEnabled {
			continue
		}
		// A resize accepted while the producer holds a write window or
		// view is applied at its end. While one is in flight the capacity
		// has not changed yet, so skip the link — re-applying the rules now
		// would stack a second request on the same evidence. A borrowed
		// batch view is skipped too: its holder is not moving elements, so
		// the occupancy and block times gathered this tick do not describe
		// the link. Re-decide once the view is released.
		if l.Queue.ResizePending() || l.Queue.ViewHeldFor() > 0 {
			continue
		}
		// Write-side rule (§4.1): writer blocked for >= blockFactor×δ.
		if blocked := l.Queue.WriterBlockedFor(); blocked >= threshold {
			if l.MaxCap <= 0 || qcap < l.MaxCap {
				target := qcap * growFactor
				if l.MaxCap > 0 && target > l.MaxCap {
					target = l.MaxCap
				}
				if target > qcap && l.Queue.Resize(target) == nil {
					m.record("grow", l.Name, qcap, target)
				}
			}
		}
	}

	if m.cfg.AutoScale {
		for i, s := range m.scalers {
			if s.Stepping() {
				// What this window saw describes the width the step is
				// replacing: start a fresh one once it lands.
				m.scaleTick[i], m.fullTicks[i], m.emptyTicks[i] = 0, 0, 0
				continue
			}
			m.scaleTick[i]++
			in := s.InputLink()
			if in == nil {
				continue
			}
			qlen, qcap := in.Queue.Len(), in.Queue.Cap()
			if qcap > 0 && qlen >= qcap-(qcap>>3) {
				m.fullTicks[i]++
			}
			if qlen == 0 {
				m.emptyTicks[i]++
			}
			if m.scaleTick[i] < scaleWindow {
				continue
			}
			window := float64(m.scaleTick[i])
			fullFrac := float64(m.fullTicks[i]) / window
			emptyFrac := float64(m.emptyTicks[i]) / window
			m.scaleTick[i], m.fullTicks[i], m.emptyTicks[i] = 0, 0, 0

			if m.rateWidth(s, in) {
				continue
			}
			switch {
			case fullFrac >= scaleUpFullFrac && s.Active() < s.Max():
				m.step(s, +1)
			case emptyFrac >= 0.9 && s.Active() > 1:
				m.step(s, -1)
			}
		}
	}

	if m.deadlock != nil {
		m.deadlock.Check(time.Now())
		if m.deadlock.Fired() {
			m.record("deadlock", "application", 0, 0)
			m.deadlock = nil // one-shot
		}
	}

	m.mu.Lock()
	m.ticks++
	m.mu.Unlock()
}

// rateWidth applies the estimator-driven width rule to scaler s whose
// group input is link in, and reports whether it owned the decision this
// window. Width comes from qmodel.MinServersWait — the smallest replica
// count whose predicted M/M/c waiting time meets waitFactor/µ̂ — and the
// monitor steps the active count ±1 toward it per scale window, so a
// noisy estimate can never slam a group from 1 to Max in one move. Falls
// back (returns false) whenever the estimates are not primed, leaving the
// contended-window heuristic in charge.
func (m *Monitor) rateWidth(s core.Scaler, in *core.LinkInfo) bool {
	if !m.cfg.RateControl || m.cfg.Rates == nil {
		return false
	}
	wl, ok := s.(workerLister)
	if !ok {
		return false
	}
	lr, ok := m.cfg.Rates.Link(in.ID)
	if !ok || !lr.Primed || lr.Lambda <= 0 {
		return false
	}
	mu, ok := m.cfg.Rates.GroupMu(wl.WorkerActors())
	if !ok || mu <= 0 {
		return false
	}
	target := qmodel.MinServersWait(lr.Lambda, mu, waitFactor/mu, s.Max())
	cur := s.Active()
	switch {
	case target > cur && cur < s.Max():
		m.step(s, +1)
	case target < cur && cur > 1:
		m.step(s, -1)
	}
	return true
}

// step starts one width step on s; its scale-up or scale-down event is
// recorded only once the step has committed.
func (m *Monitor) step(s core.Scaler, delta int) {
	kind := "scale-up"
	if delta < 0 {
		kind = "scale-down"
	}
	s.Step(delta, func(from, to int) { m.record(kind, s.Name(), from, to) })
}

// dropWindow is the tick interval between drop-watcher emissions. A
// saturated best-effort link drops on nearly every push; emitting one
// event per δ-tick would flood the telemetry bus with information the
// cumulative counter already carries, so the watcher coalesces a window's
// drops into a single event carrying the old and new cumulative counts.
const dropWindow = 1024

// dropStep polls the link's best-effort drop counter (one atomic load)
// and, at most once per dropWindow ticks, records the delta as a "drop"
// event.
func (m *Monitor) dropStep(st *linkState) {
	st.dropTick++
	if st.dropTick < dropWindow {
		return
	}
	st.dropTick = 0
	cur := st.l.Queue.Telemetry().Drops()
	if prev := st.dropSeen; cur > prev {
		st.dropSeen = cur
		m.record("drop", st.l.Name, int(prev), int(cur))
	}
}

// batchStep accumulates one tick of occupancy evidence for link i and, every
// batchWindow ticks, moves its transfer batch size toward the
// latency/throughput balance: grow ×2 while the link demonstrably contends
// (blocked time accrued, or the queue sat near-full for half the window)
// and elements are actually flowing; shrink ÷2 once the
// link goes quiet so a later latency-sensitive phase is not stuck behind a
// large batch. The size is capped at min(BatchMax, cap/2) so neither side
// can monopolize the queue, and pinned (latency-priority) links are skipped.
func (m *Monitor) batchStep(st *linkState, qlen, qcap int) {
	l := st.l
	bc := l.Batch
	if bc == nil || bc.Pinned() || l.LatencyPriority {
		return
	}
	st.batchTick++
	if qcap > 0 && qlen*2 >= qcap {
		st.batchFull++
	}
	if qlen == 0 {
		st.batchEmpty++
	}
	if st.batchTick < batchWindow {
		return
	}
	window := float64(st.batchTick)
	fullFrac := float64(st.batchFull) / window
	emptyFrac := float64(st.batchEmpty) / window
	st.batchTick, st.batchFull, st.batchEmpty = 0, 0, 0

	tel := l.Queue.Telemetry()
	pushes, _ := tel.Flow()
	writeNs, readNs := tel.BlockNs()
	moved := pushes - st.prevPushes
	blocked := writeNs > st.prevWriteNs || readNs > st.prevReadNs
	st.prevPushes, st.prevWriteNs, st.prevReadNs = pushes, writeNs, readNs

	// Pre-saturation signal from the rate estimator: a link running at
	// high utilization, or whose occupancy derivative predicts a half-full
	// queue within the next batch window, gets its batch grown *before*
	// either side ever blocks. Under rate control the estimator OWNS the
	// decision (with sustained near-full occupancy kept as a
	// direct-evidence backstop): the blocked-window heuristic counts
	// consumer starvation as contention, so under light load it batches —
	// and buys latency — for a link that has no throughput problem. ρ̂
	// distinguishes the two. λ̂ primes within ~5 estimator windows of
	// startup, so gating growth on it costs a few milliseconds once,
	// not adaptivity.
	contended := blocked || fullFrac >= 0.5
	if m.cfg.RateControl && m.cfg.Rates != nil {
		if lr, ok := m.cfg.Rates.Link(l.ID); ok {
			rateHot := false
			if lr.Primed {
				horizon := float64(batchWindow) * Delta.Seconds()
				predicted := lr.OccMean + lr.OccSlope*horizon
				rateHot = (lr.Mu > 0 && lr.Rho >= rhoGrow) ||
					(lr.OccSlope > 0 && predicted >= float64(qcap)/2)
			}
			contended = rateHot || fullFrac >= 0.5
		}
	}

	cur := bc.Get()
	if cur < 1 {
		cur = 1
	}
	limit := BatchMax
	if qcap/2 < limit {
		limit = qcap / 2
	}
	if limit < 1 {
		limit = 1
	}
	switch {
	case contended && moved > 0 && cur < limit:
		next := cur * 4
		if next > limit {
			next = limit
		}
		bc.Set(next)
		m.record("batch-up", l.Name, cur, next)
	case cur > limit:
		// Capacity shrank under the chosen batch; follow it down.
		bc.Set(limit)
		m.record("batch-down", l.Name, cur, limit)
	case emptyFrac >= 0.9 && moved == 0 && cur > 1:
		// Shrink only on genuinely idle links: a link observed empty every
		// tick can still be moving heavily between ticks (a consumer that
		// drains instantly), and shrinking there costs throughput with no
		// latency gain — PopN never waits for a full batch anyway.
		next := cur / 2
		bc.Set(next)
		m.record("batch-down", l.Name, cur, next)
	}
}
