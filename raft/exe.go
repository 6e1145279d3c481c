package raft

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/gateway"
	"raftlib/internal/graph"
	"raftlib/internal/hook"
	"raftlib/internal/mapper"
	"raftlib/internal/monitor"
	"raftlib/internal/qmodel"
	"raftlib/internal/resilience"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/scheduler"
	"raftlib/internal/trace"
)

// Config holds the runtime parameters Exe uses. Its fields are unexported:
// every setting has exactly one handle, an Option, so the options' clamps
// and defaults always apply.
type Config struct {
	// workStealing selects the sharded work-stealing scheduler (per-worker
	// deques, park/wake on queue transitions, locality-aware placement)
	// with stealWorkers workers (0 = GOMAXPROCS) instead of the default
	// goroutine-per-kernel scheduler.
	workStealing bool
	stealWorkers int

	// monitorEnabled runs the δ-tick monitor thread (default true), at the
	// paper's period monitor.Delta.
	monitorEnabled bool
	// dynamicResize enables the monitor's queue-resizing rules (default
	// true). Resizing only grows a queue.
	dynamicResize bool
	// adaptiveBatch enables the monitor's adaptive batcher: transfer batch
	// sizes on each link grow under contention and shrink when a stream
	// runs empty, up to monitor.BatchMax and half the link's
	// capacity (default false).
	adaptiveBatch bool

	// autoReplicate builds eligible kernels (Cloner + single in/out +
	// inbound link marked AsOutOfOrder or AsReorderable) as
	// split/replicas/merge groups of up to maxReplicas replicas (default
	// GOMAXPROCS).
	autoReplicate bool
	maxReplicas   int
	// autoScale starts each out-of-order group at one replica and lets
	// the monitor widen and narrow it — each step a rewrite commit that
	// adds or removes one replica; when false the group is built at full
	// width.
	autoScale bool
	// splitPolicy selects the data distribution strategy for replicated
	// groups.
	splitPolicy SplitPolicy

	// topology is the compute-place model for the mapper: one machine,
	// GOMAXPROCS cores, one socket, unless an in-package test sets it.
	topology mapper.Topology

	// observer, when non-nil, receives LiveStats every observeEvery while
	// the application runs (see WithObserver).
	observer     Observer
	observeEvery time.Duration

	// deadlockGrace, when positive, makes the monitor abort a globally
	// frozen application after this duration instead of hanging (see
	// WithDeadlockDetection).
	deadlockGrace time.Duration

	// traceCapacity, when positive, records kernel start/end events into
	// a bounded ring exposed on the Report (see WithTrace).
	traceCapacity int

	// traceStride spaces kernel Run spans: a timed invocation emits
	// RunStart/RunEnd when at least traceStride invocations have run since
	// the last span (1 = every timed invocation; 0 = the
	// DefaultTraceStride). Structural events are never sampled.
	traceStride int

	// markerStride samples end-to-end latency markers: one element in
	// every markerStride pushed by each ingest port (source kernels and
	// gateway bindings) carries a provenance marker that accumulates
	// per-stage queue/kernel residence and retires into latency histograms
	// at a sink. 0 selects DefaultMarkerStride (markers are on by
	// default); negative disables marker carriage entirely.
	markerStride int
	// slo, when positive, is the end-to-end latency objective: a retired
	// marker whose ingest-to-sink latency exceeds it emits an SLOBreach
	// event on the trace bus and (when armed) triggers the flight
	// recorder (see WithLatencySLO).
	slo time.Duration
	// flightPath, when non-empty, arms the anomaly-triggered flight
	// recorder dumping into <flightPath>.flightdump/ (see
	// WithFlightRecorder).
	flightPath string

	// serviceRateControl switches the monitor's batcher and replica scaler
	// from contended-window heuristics to decisions driven by online λ̂/µ̂
	// estimates (see WithServiceRateControl).
	serviceRateControl bool

	// metricsListener, when non-nil, serves Prometheus text-format metrics
	// (and net/http/pprof) for the duration of the run (see
	// WithMetricsListener). Exe owns it: it is closed when the run ends or
	// when ExeAsync fails.
	metricsListener net.Listener

	// supervised wraps every kernel in a restart supervisor under the
	// supervision policy (zero value = defaults; see WithSupervision).
	supervised  bool
	supervision SupervisionPolicy
	// ckptStore persists Checkpointable kernel snapshots (see
	// WithCheckpointStore); ExeAsync sets an in-memory store when none was
	// given. Every Checkpointable kernel restores from it before its first
	// step, and scale-to-zero reaping saves into it.
	ckptStore CheckpointStore
	// fault is the armed fault-injection plan, if any (see
	// WithFaultInjection).
	fault *FaultInjector

	// gateway, when non-nil, is the multi-tenant ingestion front door wired
	// to this run's source kernels (see WithGateway). Exe binds each
	// registered source to its link, starts the gateway's listeners for the
	// duration of the run, and stops them before returning.
	gateway *gateway.Server

	// resLog collects supervision events during one Exe for the Report.
	resLog *resilience.Log
	// markers is this execution's latency-marker rig (domain + bus), built
	// from markerStride; flight is the armed flight recorder, if any.
	markers *markerRig
	flight  *trace.FlightRecorder
}

// defaultMaxCap bounds monitor growth of a stream linked without MaxCap.
const defaultMaxCap = 1 << 20

func defaultConfig() Config {
	return Config{
		monitorEnabled: true,
		dynamicResize:  true,
		maxReplicas:    runtime.GOMAXPROCS(0),
		topology:       mapper.NewLocal(runtime.GOMAXPROCS(0), 1),
	}
}

// Option customizes Exe.
type Option func(*Config)

// WithWorkStealing multiplexes kernels over n worker shards (0 =
// GOMAXPROCS) under the sharded work-stealing scheduler: each worker owns
// a ready deque (LIFO local pop, batched FIFO steal), a kernel that
// returns Stall parks until one of its streams transitions
// empty→non-empty or full→non-full instead of being polled, and shard
// assignment follows the mapper's placement so producer/consumer pairs
// stay on one shard while links that still cross shards get a wider
// initial transfer batch. Steal/park/wake activity lands in
// Report.Sched, LiveStats and the Prometheus counters (the A17 ablation
// configuration).
func WithWorkStealing(n int) Option {
	return func(c *Config) { c.workStealing = true; c.stealWorkers = n }
}

// WithoutMonitor disables the runtime monitor entirely (A5 ablation).
func WithoutMonitor() Option { return func(c *Config) { c.monitorEnabled = false } }

// WithDynamicResize enables or disables the monitor's queue resizing.
func WithDynamicResize(on bool) Option { return func(c *Config) { c.dynamicResize = on } }

// WithAdaptiveBatching lets the monitor tune each link's transfer batch
// size from observed occupancy and blocking: contended links batch more
// (amortizing per-element synchronization), links that run empty batch
// less (keeping latency low). Links marked AsLowLatency are pinned at
// batch size 1 and never touched. Requires the monitor (the default).
func WithAdaptiveBatching(on bool) Option { return func(c *Config) { c.adaptiveBatch = on } }

// WithAutoReplicate enables automatic kernel replication with the given
// replica ceiling (0 = GOMAXPROCS).
func WithAutoReplicate(maxReplicas int) Option {
	return func(c *Config) {
		c.autoReplicate = true
		if maxReplicas > 0 {
			c.maxReplicas = maxReplicas
		}
	}
}

// WithAutoScale makes out-of-order replicated groups start at one replica
// and change width under monitor control instead of running at full width.
func WithAutoScale(on bool) Option { return func(c *Config) { c.autoScale = on } }

// WithSplitPolicy selects the replica data-distribution strategy.
func WithSplitPolicy(p SplitPolicy) Option { return func(c *Config) { c.splitPolicy = p } }

// DefaultTraceStride is the Run-span sampling stride used by WithTrace:
// a kernel publishes a RunStart/RunEnd pair on the event bus at most once
// per DefaultTraceStride invocations. Spans ride on the invocations the
// runtime times anyway (every one for a kernel stepping in microseconds,
// about one in 64 for one stepping in tens of nanoseconds), so tracing a
// fine-grained kernel reads no extra clock; structural events (resize,
// batch, restart, bridge, checkpoint) are never sampled. Use
// WithTraceStride(1) for a span on every timed invocation.
const DefaultTraceStride = 64

// WithTrace records kernel invocation start/end events into a bounded
// ring of the given capacity (events; oldest overwritten) and attaches
// the recorder to the Report, whose Trace can be rendered as an ASCII
// utilization timeline or exported as a Chrome trace — the visualization
// direction the paper leaves as future work (§4.1). Run spans are
// sampled at DefaultTraceStride; see WithTraceStride.
func WithTrace(capacity int) Option {
	return func(c *Config) {
		if capacity <= 0 {
			capacity = 1 << 16
		}
		c.traceCapacity = capacity
	}
}

// WithTraceStride sets the Run-span sampling stride for WithTrace: a timed
// invocation emits its RunStart/RunEnd pair when at least n invocations
// have run since the last one that did. 1 records every timed invocation
// (every invocation of a kernel stepping in microseconds or more — maximum
// timeline fidelity); larger strides trade span density for overhead.
func WithTraceStride(n int) Option {
	return func(c *Config) {
		if n < 1 {
			n = 1
		}
		c.traceStride = n
	}
}

// DefaultMarkerStride is the latency-marker sampling stride: one element
// in every DefaultMarkerStride pushed by an ingest port carries a
// provenance marker. Sampling keeps the always-on cost to a counter
// decrement per push batch plus one pointer check per port operation;
// the stamped path (marker allocation, lane deposit/pickup, histogram
// retirement) amortizes over the stride.
const DefaultMarkerStride = 1024

// WithLatencyMarkers sets the end-to-end latency-marker sampling stride
// (1 = every element; 0 or negative selects DefaultMarkerStride). Markers
// are on by default — use WithoutLatencyMarkers to disable carriage.
func WithLatencyMarkers(stride int) Option {
	return func(c *Config) {
		if stride < 1 {
			stride = DefaultMarkerStride
		}
		c.markerStride = stride
	}
}

// WithoutLatencyMarkers disables latency-marker carriage for the run:
// no lanes are installed and every port operation pays exactly one nil
// check.
func WithoutLatencyMarkers() Option { return func(c *Config) { c.markerStride = -1 } }

// WithLatencySLO sets the end-to-end latency objective: any retired
// marker whose ingest-to-sink latency exceeds d emits an SLOBreach event
// on the trace bus, and triggers the flight recorder when one is armed.
func WithLatencySLO(d time.Duration) Option {
	return func(c *Config) {
		if d > 0 {
			c.slo = d
		}
	}
}

// WithFlightRecorder arms the anomaly-triggered flight recorder: a
// deadlock abort, a supervisor escalation, a gateway shed storm or an
// e2e-latency SLO breach dumps the retained trace-bus events as a
// self-contained Chrome trace plus a text post-mortem (per-flow latency,
// per-stage residence, recently retired markers, last events) into
// <base>.flightdump/. The always-on state is exactly the bounded rings
// the run already keeps; a 64Ki-event trace ring is enabled
// automatically when WithTrace was not given.
func WithFlightRecorder(base string) Option {
	return func(c *Config) {
		if base == "" {
			base = "raft"
		}
		c.flightPath = base
		if c.traceCapacity <= 0 {
			c.traceCapacity = 1 << 16
		}
	}
}

// WithServiceRateControl turns the monitor's reactive heuristics into a
// model-driven controller: an online estimator (internal/qmodel, after
// the instantaneous-rate model of arXiv:1504.00591) maintains per-kernel
// non-blocking service rates µ̂ — invocations per second of time not
// blocked on a stream — and per-link arrival rates λ̂ from flow counters,
// with burst rejection filtering blocking-contaminated observations. The
// replica scaler then picks the group width whose predicted M/M/c waiting
// time meets its target (instead of waiting for the input queue to sit
// near-full), and the adaptive batcher grows batches when utilization
// ρ̂ = λ̂/µ̂ runs high or the occupancy derivative predicts saturation —
// before either side ever blocks. Links and groups with unprimed estimates keep the heuristics,
// so the option degrades to the default behavior rather than below it.
//
// Requires the monitor (the default). The estimator reads counters the
// runtime keeps anyway, so the option turns on no trace recorder. Every
// link and kernel is estimated from the transaction that adds it on, a
// rewrite's or a template's as well as epoch 0's. λ̂/µ̂/ρ̂ show up on
// LiveStats, the Report, and the Prometheus endpoint.
func WithServiceRateControl() Option { return func(c *Config) { c.serviceRateControl = true } }

// WithMetricsListener serves Prometheus text-format metrics on l while
// the application runs: per-link occupancy histograms, push/pop/block
// counters and batch sizes, per-kernel invocation counts and service-time
// histograms, replicated-group widths, and bridge recovery counters.
// net/http/pprof is mounted on the same listener under /debug/pprof/. The
// caller binds l (so it knows the address; see Report.MetricsAddr) and
// hands it over: Exe closes it when the run ends, and ExeAsync closes it
// when it fails.
func WithMetricsListener(l net.Listener) Option {
	return func(c *Config) { c.metricsListener = l }
}

// WithDeadlockDetection makes the monitor detect a globally frozen
// application — every unfinished kernel parked on a stream with no
// progress for the grace period — and abort it with a diagnostic error
// naming the parked streams, instead of hanging forever. Requires the
// monitor (the default); conservative: long computations and polling
// adapters never trigger it.
func WithDeadlockDetection(grace time.Duration) Option {
	return func(c *Config) {
		if grace <= 0 {
			grace = time.Second
		}
		c.deadlockGrace = grace
	}
}

// Report summarizes one execution: what ran where, how each stream behaved,
// and what the monitor changed along the way.
type Report struct {
	// Elapsed is the wall-clock execution time (allocation to completion).
	Elapsed time.Duration
	// Scheduler names the scheduler used.
	Scheduler string
	// Kernels holds one entry per executed kernel (including runtime
	// adapters and replicas).
	Kernels []KernelReport
	// Links holds one entry per stream.
	Links []LinkReport
	// MonitorTicks is the number of monitor iterations.
	MonitorTicks uint64
	// MonitorEvents lists the monitor's resize and scaling decisions.
	MonitorEvents []MonitorEvent
	// Groups reports the final active width of each replicated group.
	Groups []GroupReport
	// CutCost is the mapper's latency-weighted cost of streams crossing
	// place boundaries.
	CutCost time.Duration
	// Trace holds the kernel invocation recorder when WithTrace was set;
	// render it with Trace.Timeline(TraceNames(report), width).
	Trace *TraceRecorder
	// Recoveries lists every supervised restart (and terminal failure)
	// observed during the execution, in order.
	Recoveries []RecoveryEvent
	// Bridges reports recovery counters of self-healing remote streams.
	Bridges []BridgeReport
	// MetricsAddr is the address the Prometheus endpoint was bound to
	// during the run (empty unless WithMetricsListener).
	// The endpoint itself is closed by the time Exe returns.
	MetricsAddr string
	// Gateway summarizes ingestion-gateway admission activity (per-tenant
	// admitted/shed counts, per-source drops); nil unless WithGateway.
	Gateway *GatewayReport
	// Latency is the end-to-end latency provenance summary: per-flow
	// (tenant/source) latency distributions and per-stage residence
	// attribution folded from retired markers. Nil when latency markers
	// are disabled (WithoutLatencyMarkers).
	Latency *LatencyReport
	// Sched holds the scheduler's activity counters (steals, parks,
	// wakes). Nil under the default goroutine-per-kernel
	// scheduler, which delegates entirely to the Go runtime and has no
	// counters of its own.
	Sched *SchedReport
}

// MonitorEvent is one resize or scaling decision of the monitor
// (Report.MonitorEvents).
type MonitorEvent = monitor.Event

// TraceRecorder is the kernel invocation recorder of Report.Trace.
type TraceRecorder = trace.Recorder

// FlowStats is one (tenant, source) flow's end-to-end latency
// distribution (LatencyReport.Flows, LiveStats.Flows).
type FlowStats = trace.FlowStats

// StageStats is one stage's residence attribution, time in queue against
// time in kernel (LatencyReport.Stages).
type StageStats = trace.StageStats

// OccBuckets is the number of log2 buckets of LinkReport.OccHist.
const OccBuckets = ringbuffer.OccBuckets

// SchedReport is the scheduler-activity section of a Report, populated by
// the work-stealing scheduler.
type SchedReport struct {
	// Workers is the number of scheduler worker goroutines.
	Workers int
	// Steals counts successful steal operations; StolenTasks the kernels
	// migrated by them (a steal moves up to StealBatch tasks).
	Steals, StolenTasks uint64
	// Parks counts kernel park transitions (kernel stalled and was
	// descheduled until a link readiness hook fired); Wakes counts
	// hook-driven unparks and Rescues watchdog-driven ones.
	Parks, Wakes, Rescues uint64
	// Deprecated: always 0 since the pool scheduler was removed.
	StalledPasses uint64
	// CrossShardLinks is the number of links whose endpoints the placement
	// pass put on different shards (these links get a batch hint to
	// amortize the cross-shard transfer).
	CrossShardLinks int
}

// LatencyReport summarizes the run's retired latency markers.
type LatencyReport struct {
	// Stride is the marker sampling stride in effect.
	Stride int
	// Retired is the number of markers that completed the ingest-to-sink
	// journey.
	Retired uint64
	// Flows holds per-(tenant,source) e2e latency distributions.
	Flows []FlowStats
	// Stages holds per-stage residence attribution (time-in-queue vs
	// time-in-kernel), sorted by total residence descending.
	Stages []StageStats
	// FlightDir and FlightDumps describe the flight recorder, when armed.
	FlightDir   string
	FlightDumps uint64
}

// TraceNames returns the kernel names indexed by trace kernel id for
// Report.Trace.Timeline.
func TraceNames(r *Report) []string {
	names := make([]string, len(r.Kernels))
	for i, k := range r.Kernels {
		names[i] = k.Name
	}
	return names
}

// KernelReport is the per-kernel slice of a Report. Runs is exact. The
// service-time statistics come from the invocations the runtime timed:
// all of them for a kernel whose invocations take microseconds or more,
// a weighted random sample (about one in 64 at the finest) for one whose
// invocations take less, so for such kernels they are unbiased estimates
// rather than totals, and a timed invocation of ~100 ns reads high by the
// disturbance of the clock reads around it.
type KernelReport struct {
	Name  string
	Place int
	// Runs counts the kernel's invocations.
	Runs uint64
	// MeanSvcNanos is the mean invocation time.
	MeanSvcNanos float64
	// SvcP50Nanos and SvcP99Nanos are service-time quantile upper bounds
	// from the kernel's log2 histogram.
	SvcP50Nanos uint64
	SvcP99Nanos uint64
	// BusyNanos is the time spent inside invocations: each timed duration
	// times the number of invocations it stands for.
	BusyNanos uint64
	// RatePerSec is the invocation rate the mean service time implies.
	RatePerSec float64
	// Restarts counts supervised recoveries of this kernel.
	Restarts uint64
	// MuHat is the online non-blocking service-rate estimate µ̂
	// (elements/s) at end of run; 0 unless WithServiceRateControl. Unlike
	// RatePerSec (achieved throughput, depressed by blocking), µ̂
	// approximates what the kernel could sustain if never blocked.
	MuHat float64
	// JoinedAt and LeftAt are offsets from execution start at which a
	// graph rewrite spliced the kernel in / retired it. Both zero for
	// kernels present from start to finish, so static runs are unchanged.
	JoinedAt time.Duration
	LeftAt   time.Duration
}

// LinkReport is the per-stream slice of a Report, and of LiveStats, where a
// row describes the stream at the snapshot.
type LinkReport struct {
	Name string
	// Len is the number of elements buffered when the row was read (0 at
	// the end of a run that drained).
	Len int
	// FinalCap is the capacity when the row was read: at the end of the run
	// in a Report, at the snapshot in LiveStats.
	FinalCap      int
	MeanOccupancy float64
	FullFrac      float64
	StarvedFrac   float64
	Pushes        uint64
	Pops          uint64
	WriteBlockNs  uint64
	ReadBlockNs   uint64
	// Resizes counts installed capacity changes (Grows + Shrinks).
	Resizes uint64
	Grows   uint64
	Shrinks uint64
	// Dropped counts elements discarded by the best-effort overflow policy
	// (AsBestEffort). Zero on backpressure links.
	Dropped uint64
	// OccHist is the per-push log2 occupancy histogram — the paper's
	// §4.1 "queue occupancy histogram" (bucket 0 = {0,1} elements,
	// bucket i = [2^i, 2^(i+1)) elements at push time). OccP50/OccP99
	// are its quantile upper bounds.
	OccHist [OccBuckets]uint64
	OccP50  uint64
	OccP99  uint64
	// Batch is the transfer batch size in effect when execution ended
	// (0 when the adaptive batcher made no decision for this link).
	Batch int
	// Views counts completed zero-copy borrow/release cycles on the
	// stream; ViewHoldNs is the cumulative wall time views were held
	// open (held views defer resizes, so a high hold time explains a
	// quiet monitor).
	Views      uint64
	ViewHoldNs uint64
	// LambdaHat, MuHat and RhoHat are the online estimator's final
	// arrival rate λ̂ (elements/s), consumer drain rate µ̂ (elements/s)
	// and utilization ρ̂ = λ̂/µ̂ for this link — the controller's inputs,
	// surfaced so its decisions are auditable. Zero unless
	// WithServiceRateControl was set (and the estimates primed).
	LambdaHat float64
	MuHat     float64
	RhoHat    float64
	// JoinedAt and LeftAt are offsets from execution start at which a
	// graph rewrite spliced the stream in / sealed and removed it. Both
	// zero for streams present from start to finish.
	JoinedAt time.Duration
	LeftAt   time.Duration
}

// GroupReport describes one replicated kernel group after execution.
type GroupReport struct {
	Name        string
	MaxReplicas int
	ActiveAtEnd int
}

// Exe executes the topology: it verifies the graph (with each replicated
// kernel's group in place of its two links), allocates every stream, maps
// kernels to places, runs them under the configured scheduler with the monitor
// optimizing dynamically, and blocks until every kernel has stopped
// (paper §4, "map.exe()"). A Map can be executed once.
func (m *Map) Exe(opts ...Option) (*Report, error) {
	ex, err := m.ExeAsync(opts...)
	if err != nil {
		return nil, err
	}
	return ex.Wait()
}

// Execution is a live run handle. ExeAsync returns one as soon as the
// graph is running; Wait blocks until every kernel has stopped and
// assembles the Report; Rewriter exposes the graph-rewrite protocol —
// transactions that add and remove kernels and links under graph epochs
// while the rest of the application keeps streaming.
type Execution struct {
	m       *Map
	cfg     *Config
	g       *graph.Graph
	assign  mapper.Assignment
	rec     *trace.Recorder
	stride  int
	mon     *monitor.Monitor
	dw      *monitor.DeadlockWatch
	est     *qmodel.Estimator
	sched   scheduler.Scheduler
	ws      *scheduler.WorkSteal
	scalers []*groupScaler
	// steps counts the scalers' width steps in flight; Wait waits for
	// them.
	steps  sync.WaitGroup
	health *execHealth
	msrv   *metricsServer

	reg  *registry
	rw   *Rewriter
	tmpl *templateSet

	done    chan struct{}
	elapsed time.Duration
	runErr  error

	repOnce sync.Once
	rep     *Report
}

// Done is closed when every kernel (including dynamically spawned ones)
// has stopped and the runtime services are torn down.
func (ex *Execution) Done() <-chan struct{} { return ex.done }

// Rewriter returns the execution's graph-rewrite handle.
func (ex *Execution) Rewriter() *Rewriter { return ex.rw }

// Wait blocks until the application completes, then builds the Report —
// the second half of Exe. Safe to call from multiple goroutines; the
// report is assembled once.
func (ex *Execution) Wait() (*Report, error) {
	<-ex.done
	ex.steps.Wait()
	ex.repOnce.Do(func() {
		rep := ex.buildReport()
		if ex.cfg.gateway != nil {
			rep.Gateway = gatewayReport(ex.cfg.gateway)
		}
		if ex.msrv != nil {
			rep.MetricsAddr = ex.msrv.Addr()
			ex.msrv.Stop()
		}
		ex.rep = rep
	})
	return ex.rep, ex.runErr
}

// ExeAsync is Exe without the blocking half: it commits the whole map —
// replicated kernels as their groups — as epoch 0 of the graph
// (verification, mapping, allocation, actors), starts the runtime services
// and the scheduler, then returns while the application runs. The handle's
// Rewriter can splice kernels and links into (and out of) the running
// graph; Wait completes the execution exactly as Exe would have.
func (m *Map) ExeAsync(opts ...Option) (_ *Execution, err error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	// The metrics listener is Exe's from here on: a failed start closes it
	// (a started endpoint closes it itself).
	defer func() {
		if err != nil && cfg.metricsListener != nil {
			cfg.metricsListener.Close()
		}
	}()
	if m.executed {
		return nil, fmt.Errorf("%w (kernels and streams are single-use; build a fresh Map)", ErrAlreadyExecuted)
	}
	m.executed = true

	// 1. The empty execution epoch 0 commits into: the checkpoint store, the
	// latency-marker rig, the trace recorder, an empty registry and the
	// rewriter.
	if cfg.ckptStore == nil {
		cfg.ckptStore = resilience.NewMemStore()
	}
	if cfg.supervised {
		cfg.resLog = &resilience.Log{}
	}
	if cfg.markerStride >= 0 {
		stride := cfg.markerStride
		if stride == 0 {
			stride = DefaultMarkerStride
		}
		cfg.markers = &markerRig{dom: trace.NewMarkerDomain(stride)}
	}
	ex := &Execution{
		m: m, cfg: &cfg,
		stride: cfg.traceStride,
		reg:    &registry{},
		done:   make(chan struct{}),
	}
	if ex.stride < 1 {
		ex.stride = DefaultTraceStride
	}
	if cfg.traceCapacity > 0 {
		ex.rec = trace.NewRecorder(cfg.traceCapacity)
	}
	if cfg.markers != nil {
		cfg.markers.rec = ex.rec
	}
	ex.rw = &Rewriter{ex: ex}
	ex.tmpl = newTemplateSet(ex)
	// Global exception pathway: a kernel Raise force-closes every stream
	// (including dynamically spliced ones) so the whole application
	// unblocks and stops.
	m.setAbort(ex.reg.closeAllQueues)
	m.reg = ex.reg

	// 2. Epoch 0: every kernel and link of the map, as one transaction
	// against the empty graph. Map.Link has already resolved ports, checked
	// types and inserted converters, so the links are staged as they are;
	// under WithAutoReplicate each replicable kernel's two links give way
	// to its group (stageGroups). The mapper places the validated graph
	// ("the graph is first checked to ensure it is fully connected", §4.2).
	tx := m.stage()
	tx.rw = ex.rw
	if cfg.autoReplicate && cfg.maxReplicas > 1 {
		if ex.scalers, err = ex.stageGroups(tx); err != nil {
			return nil, err
		}
	}
	if ex.g, err = tx.validate(ex.reg); err != nil {
		return nil, err
	}
	if ex.assign, err = mapper.Assign(ex.g, cfg.topology); err != nil {
		return nil, err
	}

	// 3. The runtime services, built empty: the build pass of every
	// transaction, epoch 0's included, hands the monitor, the deadlock
	// watch and the estimator what it added, and its join the scheduler.
	// Epoch 0 holds the rewriter's lock, as every commit does, so a width
	// step of the monitor or a template the gateway instantiates waits for
	// it to join.
	ex.rw.mu.Lock()
	defer ex.rw.mu.Unlock()
	ex.startServices()
	var streamer *statsStreamer
	stop := func() {
		if ex.mon != nil {
			ex.mon.Stop()
		}
		if streamer != nil {
			streamer.Stop()
		}
	}

	// 4. Build epoch 0, then the wiring that can still fail, so that a
	// failure starts no actor: the ingestion gateway binds each registered
	// source to its engine link, so admission control sees live occupancy,
	// rates and replica width, and its listeners start after the metrics
	// endpoint and the stats streamer. Then join starts the actors.
	b := ex.build(tx, ex.assign)
	if cfg.gateway != nil {
		if err = ex.wireGateway(); err != nil {
			stop()
			return nil, err
		}
	}
	ex.health = &execHealth{}
	if cfg.metricsListener != nil {
		ex.msrv = startMetrics(ex)
	}
	if cfg.observer != nil {
		streamer = startStatsStreamer(ex)
	}
	ex.reg.start = time.Now()
	if cfg.gateway != nil {
		if err = cfg.gateway.Start(); err != nil {
			stop()
			if ex.msrv != nil {
				ex.msrv.Stop()
			}
			return nil, err
		}
		// Unknown/unwired ingest sources get one shot at template-driven
		// instantiation before the gateway answers 404/503.
		cfg.gateway.SetResolver(ex.tmpl.resolve)
	}
	ex.health.set(healthRunning)
	// A fresh scheduler takes any batch.
	_ = ex.join(b, 0)
	go func() {
		runErr := ex.sched.Wait()
		ex.elapsed = time.Since(ex.reg.start)
		ex.health.set(healthDraining)
		if cfg.gateway != nil {
			cfg.gateway.Stop()
		}
		stop()
		ex.health.set(healthDone)
		if raised := m.raisedError(); raised != nil {
			runErr = errors.Join(raised, runErr)
		}
		ex.runErr = runErr
		close(ex.done)
	}()
	return ex, nil
}

// startServices builds the runtime services of an execution, all empty:
// the flight recorder and the latency SLO, the rate estimator, the monitor
// (started) with its deadlock watch, and the scheduler.
func (ex *Execution) startServices() {
	cfg, rec := ex.cfg, ex.rec
	// Flight recorder and latency SLO. The recorder taps the trace bus for
	// anomaly kinds (deadlock, escalation, shed storm, SLO breach); a breach
	// itself is detected at marker retirement and published as an SLOBreach
	// event, so the tap sees it like any other anomaly. It names the trace
	// tracks from the registry when it dumps.
	if cfg.flightPath != "" && rec != nil {
		var dom *trace.MarkerDomain
		if cfg.markers != nil {
			dom = cfg.markers.dom
		}
		cfg.flight = trace.NewFlightRecorder(cfg.flightPath, rec, dom, ex.reg.names)
		rec.Watch(cfg.flight.Observe)
	}
	if cfg.slo > 0 && cfg.markers != nil {
		fl := cfg.flight
		cfg.markers.dom.SetSLO(cfg.slo, func(mk *trace.Marker, e2e time.Duration) {
			if rec != nil {
				rec.Emit(trace.Event{Actor: -1, Kind: trace.SLOBreach,
					At: time.Now().UnixNano(), Prev: int64(mk.ID), Arg: int64(e2e),
					Label: mk.Flow()})
			} else if fl != nil {
				fl.Trigger(fmt.Sprintf("e2e latency SLO breach: %v on flow %s (marker %d)",
					e2e.Round(time.Microsecond), mk.Flow(), mk.ID))
			}
		})
	}

	// Monitor (and the rate estimator it drives, when requested).
	if cfg.serviceRateControl {
		ex.est = qmodel.NewEstimator()
	}
	if cfg.monitorEnabled {
		coreScalers := make([]core.Scaler, len(ex.scalers))
		for i, s := range ex.scalers {
			coreScalers[i] = s
		}
		ex.mon = monitor.New(monitor.Config{
			Resize:        cfg.dynamicResize,
			AutoScale:     cfg.autoScale,
			AdaptiveBatch: cfg.adaptiveBatch,
			Trace:         rec,
			Rates:         ex.est,
			RateControl:   cfg.serviceRateControl,
		}, coreScalers)
		if cfg.deadlockGrace > 0 {
			m := ex.m
			ex.dw = monitor.NewDeadlockWatch(cfg.deadlockGrace, func(diag string) {
				m.exc.mu.Lock()
				if m.exc.err == nil {
					m.exc.err = fmt.Errorf("raft: %s", diag)
				}
				m.exc.mu.Unlock()
				m.exc.fail()
				// Capture the post-mortem before the teardown below disturbs
				// the frozen state (the bus tap also fires on the monitor's
				// Deadlock event; the cooldown dedups).
				if cfg.flight != nil {
					cfg.flight.Trigger("deadlock detected: " + diag)
				}
				ex.reg.closeAllQueues()
			})
			ex.mon.SetDeadlockWatch(ex.dw)
		}
		ex.mon.Start()
	}

	// The scheduler, before the metrics endpoint and the stats streamer
	// start, so both can poll its counters mid-run.
	if cfg.workStealing {
		ex.ws = scheduler.NewWorkSteal(cfg.stealWorkers, cfg.topology, rec)
		ex.sched = ex.ws
	} else {
		ex.sched = scheduler.NewGoroutine()
	}
}

// Validate runs Exe's structural checks — every port linked, graph acyclic
// with sources and sinks — without executing, so topology construction can
// be verified cheaply (e.g. in tests or before shipping a map to a remote
// node). It is the validator of Exe's epoch-0 transaction, run against an
// empty graph, so it refuses exactly what Exe would, with the same error.
func (m *Map) Validate() error {
	_, err := m.stage().validate(&registry{})
	return err
}

// stage returns the map's kernels and links as one transaction — epoch 0's
// — each link claiming the two ports Map.Link bound.
func (m *Map) stage() *Tx {
	t := &Tx{addKernels: m.kernels, addLinks: m.links, claimed: make(map[*Port]*Link, 2*len(m.links))}
	for _, l := range m.links {
		t.claimed[l.SrcPort], t.claimed[l.DstPort] = l, l
	}
	return t
}

// stream is one link's allocated stream: the queue and the state both
// endpoint ports share with it.
type stream struct {
	q ringbuffer.Queue
	// ls is the stream's link line (batch control and asynchronous-signal
	// cell), shared by both endpoints and the monitor; lane its
	// latency-marker mailbox (nil with markers off): the producer's push
	// deposits, the consumer's pop collects.
	ls   *linkSlot
	lane *trace.MarkerLane
	li   *core.LinkInfo
}

// streamRings returns each link's ring: a momentary producer's own
// (hook.ProvideQueue; provided says which), else one with the
// link's capacity (ringbuffer.DefaultCapacity without Cap) and growth bound
// from one array of headers per element type (DESIGN "Per-transaction
// slabs").
func streamRings(links []*Link) (rings []ringbuffer.Queue, provided []bool) {
	rings, provided = make([]ringbuffer.Queue, len(links)), make([]bool, len(links))
	counts := map[elemOps]int{}
	for i, l := range links {
		if q := l.SrcPort.q; q != nil && l.Src.kernelBase().virtual {
			rings[i], provided[i] = q, true
		} else {
			counts[l.SrcPort.ops]++
		}
	}
	next := make(map[elemOps]func(capacity, maxCap int) ringbuffer.Queue, len(counts))
	for ops, n := range counts {
		next[ops] = ops.rings(n)
	}
	for i, l := range links {
		if !provided[i] {
			rings[i] = next[l.SrcPort.ops](l.capacity, l.growthCap())
		}
	}
	return rings, provided
}

// growthCap bounds the link's ring growth: MaxCap, else defaultMaxCap.
func (l *Link) growthCap() int {
	if l.maxCap > 0 {
		return l.maxCap
	}
	return defaultMaxCap
}

// newStream builds l's stream around its ring q into its link line ls, its
// marker lane (nil with markers off) and its cold record under the
// execution's policy for the build pass (rewrite.go): a provided queue
// (zero copy) is never resized, and the stream gets the best-effort
// overflow policy, a batch control pinned at 1 on AsLowLatency links so the
// adaptive batcher never holds their elements back, the link name and the
// marker lane. It binds no port and touches no kernel; the caller sets the
// LinkInfo's actor IDs.
func (lr *linkRecord) newStream(cfg *Config, ls *linkSlot, lane *trace.MarkerLane, l *Link, q ringbuffer.Queue, provided bool, id int, name string) stream {
	s := stream{q: q, ls: ls, li: &lr.info}
	if l.bestEffort {
		// Provider-owned queues (read-only source rings) have nothing to
		// drop and simply keep their default policy.
		if be, ok := s.q.(interface{ SetBestEffort(bool) }); ok {
			be.SetBestEffort(true)
		}
	}
	if l.lowLatency {
		ls.batch.Pin(1)
	}
	if cfg.markers != nil {
		lane.Init(name)
		s.lane = lane
	}
	lr.info = core.LinkInfo{
		ID:              id,
		Name:            name,
		Queue:           s.q,
		ResizeEnabled:   !provided,
		MaxCap:          l.growthCap(),
		Batch:           &ls.batch,
		LatencyPriority: l.lowLatency,
		BestEffort:      l.bestEffort,
	}
	return s
}

// linkNames returns each link's "src.port->dst.port" name, all cut from
// one string.
func linkNames(links []*Link) []string {
	parts := func(l *Link) [7]string {
		return [...]string{l.Src.kernelBase().name, ".", l.SrcPort.name, "->", l.Dst.kernelBase().name, ".", l.DstPort.name}
	}
	size := 0
	for _, l := range links {
		for _, part := range parts(l) {
			size += len(part)
		}
	}
	var b strings.Builder
	b.Grow(size)
	ends := make([]int, len(links))
	for i, l := range links {
		for _, part := range parts(l) {
			b.WriteString(part)
		}
		ends[i] = b.Len()
	}
	all, start := b.String(), 0
	names := make([]string, len(links))
	for i, end := range ends {
		names[i], start = all[start:end], end
	}
	return names
}

// bindPort attaches one endpoint port of link l to the stream.
func (s *stream) bindPort(p *Port, l *Link) {
	p.bind(s.q, s.ls)
	p.link, p.lane = l, s.lane
}

// rigMarkers installs the marker rig on l's producer (src) and/or consumer
// (dst) kernel. An ingest port — the out port of a kernel with no inputs
// that is not a hook.MarkerCarrier — additionally stamps fresh
// markers at the sampling stride.
func rigMarkers(rig *markerRig, l *Link, src, dst bool) {
	if src {
		kb := l.Src.kernelBase()
		kb.marks = rig
		if len(kb.ins) == 0 && !kb.markForward && l.SrcPort.stampEvery == 0 {
			l.SrcPort.stampEvery = rig.dom.Stride()
			l.SrcPort.stampLeft = l.SrcPort.stampEvery
		}
	}
	if dst {
		l.Dst.kernelBase().marks = rig
	}
}

// buildActor wraps one kernel into the actor of its (zero) slab slot and
// fills its registry entry ae for the build pass. When tracing is on, the
// actor carries the shared recorder: core.Actor.StepTimed emits
// RunStart/RunEnd itself, only on invocations it times and from the same
// clock reads, so tracing adds no extra time.Now calls. Kernels that run
// their own event loops (oar bridges) are handed the recorder through
// hook.TraceAttacher so their reconnect/replay transitions land on the
// same bus; a hook.MarkerCarrier is handed its marker operations.
func (ks *kernelSlot) buildActor(ae *actorEntry, k Kernel, id, place int, rec *trace.Recorder, stride int) *core.Actor {
	kb := k.kernelBase()
	// Marker lifecycle events attribute to the kernel's trace track.
	kb.actor = int32(id)
	a := &ks.actor
	ae.k, ae.kb, ae.a = k, kb, a
	if w, ok := k.(waiter); ok {
		ae.wait = w.waits()
	}
	// The slot is zero: setting the fields one by one writes only these
	// words, where a composite literal would build the whole actor aside
	// and copy it in. Every actor carries a gate so a later rewrite can
	// pause it at a step boundary (one atomic load per step when idle).
	a.ID, a.Name, a.Place, a.Virtual = id, kb.Name(), place, kb.virtual
	a.Runner, a.Life, a.Windows, a.Gate = k, ae, (*windowOwner)(kb), &ks.gate
	if rec != nil {
		a.Trace = rec
		a.TraceID = int32(id)
		a.TraceStride = uint32(stride)
		if ta, ok := k.(hook.TraceAttacher); ok {
			ta.AttachTrace(rec, int32(id))
		}
	}
	if mc, ok := k.(hook.MarkerCarrier); ok {
		kb.markForward = true
		mc.CarryMarkers((*markerCarriage)(kb))
	}
	if init, ok := k.(Initializer); ok {
		a.Init = init.Init
	}
	return a
}

// Finish runs the kernel's Finalizer, then closes its outputs (EOF
// downstream) and inputs (unblocks upstream producers if it died early).
// A kernel that ended with an error fails its execution (Failed) first.
func (ae *actorEntry) Finish(err error) {
	if err != nil {
		ae.kb.m.exc.fail()
	}
	if fin, ok := ae.k.(Finalizer); ok {
		fin.Finalize()
	}
	ae.k.kernelBase().closeAllQueues()
}

// Ready is the cooperative-scheduler progress predicate of the entry's
// kernel (core.Lifecycle), which the work-stealing scheduler asks before
// every step. A replica adapter never waits inside Run, so it is ready
// unless its last Stall recorded ends of which none can be served yet
// (canServe). Any other kernel is ready when every input stream holds data
// (or is closed, so the pop returns immediately) and every output stream
// has space (or is closed).
//
// An open port window answers for its stream: a read window always holds an
// element the kernel has not popped and a write window a slot it has not
// filled, so such a port is ready. Any other port asks its ring, which arms
// a blocked end as it answers: the predicate returning false is the park,
// and the other end's next publish or release fires the wake hook.
func (ae *actorEntry) Ready() bool {
	if ae.wait != nil {
		return ae.wait.canServe()
	}
	for _, p := range ae.kb.ins {
		q := p.q
		if q == nil || q.WindowPos(false) > 0 {
			continue
		}
		if q.Blocked(false) {
			return false
		}
	}
	for _, p := range ae.kb.outs {
		q := p.q
		if q == nil || q.WindowPos(true) > 0 {
			continue
		}
		if q.Blocked(true) {
			return false
		}
	}
	return true
}

// Await is the goroutine scheduler's wait after a Stall (core.Lifecycle).
// An adapter sleeps on the ends its Stall recorded: one end in its ring's
// own wait, so the sleep counts as block time there, or every input of a
// merge until the first publish on any. Any other kernel yields.
func (ae *actorEntry) Await() {
	var ends []*Port
	if ae.wait != nil {
		ends = ae.wait.waitOn
	}
	switch {
	case len(ends) == 1:
		ends[0].q.Wait(ends[0].dir == Out)
	case len(ends) > 1:
		ae.k.(*mergeKernel).await()
	default:
		runtime.Gosched()
	}
}

// buildReport assembles the Report from the registry once the run is over:
// one row per registry entry, in registry order, each with its lifecycle
// columns, written into rows allocated at their final length.
func (ex *Execution) buildReport() *Report {
	cfg, reg := ex.cfg, ex.reg
	rep := &Report{
		Elapsed:   ex.elapsed,
		Scheduler: ex.sched.Name(),
		CutCost:   mapper.CutCost(ex.g, cfg.topology, ex.assign),
		Trace:     ex.rec,
		Sched:     ex.schedReport(),
		Bridges:   ex.bridgeRows(),
		Groups:    ex.groupRows(),
	}
	reg.mu.Lock()
	rep.Kernels = make([]KernelReport, len(reg.actors))
	for i, ae := range reg.actors {
		ex.kernelRow(&rep.Kernels[i], ae, nil)
	}
	rep.Links = make([]LinkReport, len(reg.links))
	for i, le := range reg.links {
		ex.linkRow(&rep.Links[i], le)
	}
	reg.mu.Unlock()
	if cfg.resLog != nil {
		rep.Recoveries = cfg.resLog.Events()
	}
	if ex.mon != nil {
		rep.MonitorTicks = ex.mon.Ticks()
		rep.MonitorEvents = ex.mon.Events()
	}
	if cfg.markers != nil {
		rep.Latency = &LatencyReport{
			Stride:  int(cfg.markers.dom.Stride()),
			Retired: cfg.markers.dom.Retired(),
			Flows:   cfg.markers.dom.Flows(),
			Stages:  cfg.markers.dom.Stages(),
		}
		if cfg.flight != nil {
			rep.Latency.FlightDir = cfg.flight.Dir()
			rep.Latency.FlightDumps = cfg.flight.Dumps()
		}
	}
	return rep
}
