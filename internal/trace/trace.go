// Package trace is the runtime's unified telemetry bus: a typed,
// per-actor-sharded event recorder cheap enough to wrap every kernel
// invocation, carrying every decision the runtime makes — kernel
// run start/end, queue resizes, adaptive batch moves, replication width
// changes, supervised restarts, checkpoint saves/restores, and bridge
// disconnect/reconnect/replay — plus exporters that render the stream as
// an ASCII utilization timeline (with monitor decisions overlaid) and as
// Chrome trace-event JSON loadable in Perfetto. This is the paper's §4.1
// monitoring surface ("queue size, current kernel configuration … mean
// queue occupancy, service rate, throughput, queue occupancy histograms")
// made durable, and the §4.1 future-work visualization made concrete.
//
// Recording discipline: each shard is a bounded ring of atomic slot
// pointers reserved through an atomic cursor — one atomic add plus one
// atomic pointer store per event, no locks anywhere on the hot path, and
// wraparound overwrites the oldest events so memory stays bounded on long
// runs. Actors hash to shards, so the common single-writer-per-actor case
// never contends; readers merge the shards chronologically on demand and
// never stall a writer. Dropped counts are derived from the cursors, not
// tracked separately, so overwriting costs nothing extra.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Kind labels one event.
type Kind uint8

// Event kinds. RunStart/RunEnd are the high-frequency pair recorded around
// every kernel invocation; the rest are low-frequency runtime decisions.
const (
	// RunStart marks the beginning of one kernel invocation.
	RunStart Kind = iota
	// RunEnd marks its completion.
	RunEnd
	// QueueGrow is a monitor resize (Prev/Arg = old/new cap).
	QueueGrow
	// BatchUp and BatchDown are adaptive-batcher moves (Prev/Arg = old/new
	// transfer batch size).
	BatchUp
	BatchDown
	// ScaleUp and ScaleDown are replication width changes (Prev/Arg =
	// old/new active replicas).
	ScaleUp
	ScaleDown
	// Restart is one supervised recovery (Arg = 1-based attempt).
	Restart
	// Escalate is a kernel whose restart budget is exhausted (Arg = attempts).
	Escalate
	// CheckpointSave and CheckpointRestore are snapshot writes and restores.
	CheckpointSave
	CheckpointRestore
	// BridgeDisconnect, BridgeReconnect and BridgeReplay are self-healing
	// bridge transitions (BridgeReconnect Arg = lifetime reconnects,
	// BridgeReplay Arg = frames retransmitted).
	BridgeDisconnect
	BridgeReconnect
	BridgeReplay
	// Deadlock is the monitor's frozen-application abort.
	Deadlock
	// Admit is one ingestion-gateway batch accepted into a source port
	// (Arg = elements admitted, Label = "tenant/source").
	Admit
	// Shed is one gateway batch rejected by admission control (Arg =
	// predicted wait in milliseconds, or -1 when unbounded; Label =
	// "tenant/source").
	Shed
	// Drop records best-effort overflow discards on a link (Prev/Arg =
	// old/new cumulative drop count, Label = link name).
	Drop
	// MarkStamp is one latency marker minted at an ingest point (Arg =
	// marker ID, Label = "tenant/source").
	MarkStamp
	// MarkHop is one marker picked up by a stage (Arg = marker ID, Prev =
	// queue residence in ns for the hop, Label = the stage crossed).
	MarkHop
	// MarkRetire is one marker retired at a sink (Prev = marker ID, Arg =
	// end-to-end latency in ns, Label = "tenant/source").
	MarkRetire
	// SLOBreach is one retired marker exceeding the configured end-to-end
	// objective (Prev = marker ID, Arg = e2e ns, Label = "tenant/source").
	SLOBreach
	// Steal is one successful steal by an idle work-stealing worker (Actor =
	// first stolen kernel, Prev = victim shard, Arg = tasks moved, Label =
	// thief shard "w<i>").
	Steal
	// Park is one kernel parking after a Stall, awaiting a link wake
	// (sampled on the scheduler's hot path; Prev = owning shard).
	Park
	// Wake is one parked kernel re-queued (sampled; Arg = 0 for a link
	// transition wake, 1 for a watchdog rescue).
	Wake
	// EpochSeal is one rewrite transaction sealing affected links at a
	// batch boundary (Arg = epoch number, Prev = links sealed, Label =
	// transaction summary).
	EpochSeal
	// GraphAdd is one kernel or link spliced into the running graph by a
	// rewrite transaction (Actor = kernel id or -1 for a link, Arg = epoch,
	// Label = kernel or link name).
	GraphAdd
	// GraphRemove is one kernel or link retired from the running graph
	// (Actor = kernel id or -1 for a link, Arg = epoch, Label = name).
	GraphRemove
)

var kindNames = [...]string{
	RunStart:          "run-start",
	RunEnd:            "run-end",
	QueueGrow:         "grow",
	BatchUp:           "batch-up",
	BatchDown:         "batch-down",
	ScaleUp:           "scale-up",
	ScaleDown:         "scale-down",
	Restart:           "restart",
	Escalate:          "escalate",
	CheckpointSave:    "ckpt-save",
	CheckpointRestore: "ckpt-restore",
	BridgeDisconnect:  "bridge-down",
	BridgeReconnect:   "bridge-up",
	BridgeReplay:      "bridge-replay",
	Deadlock:          "deadlock",
	Admit:             "admit",
	Shed:              "shed",
	Drop:              "drop",
	MarkStamp:         "mark-stamp",
	MarkHop:           "mark-hop",
	MarkRetire:        "mark-retire",
	SLOBreach:         "slo-breach",
	Steal:             "steal",
	Park:              "park",
	Wake:              "wake",
	EpochSeal:         "epoch-seal",
	GraphAdd:          "graph-add",
	GraphRemove:       "graph-remove",
}

// String returns the event kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Instant reports whether the kind is a point decision rather than half of
// a RunStart/RunEnd span pair.
func (k Kind) Instant() bool { return k != RunStart && k != RunEnd }

// Event is one recorded occurrence. The Actor/Kind/At triple is always
// set; Prev, Arg and Label carry kind-specific detail (old value, new
// value, and the link / group / bridge-stream name) and stay zero on the
// RunStart/RunEnd hot path so recording allocates nothing beyond the slot.
type Event struct {
	// Actor is the engine actor (kernel) id the event belongs to, or -1
	// for events scoped to a link, group or the whole application.
	Actor int32
	Kind  Kind
	// At is the event time in nanoseconds (time.Now().UnixNano()).
	At int64
	// Prev and Arg are the kind-specific old and new values.
	Prev, Arg int64
	// Label names the non-actor target: a link, group or bridge stream.
	Label string
}

// shard is one bounded ring of the bus. The cursor counts every event
// ever reserved in the shard; slot i lives at i & mask. Readers load the
// cursor and walk the most recent min(cursor, len) slots — an overwrite
// racing the walk simply surfaces the newer event, never a torn one,
// because slots hold atomic pointers.
type shard struct {
	cursor atomic.Uint64
	slots  []atomic.Pointer[Event]
	mask   uint64
	// pad keeps neighboring shards' cursors off one cache line.
	_ [40]byte
}

// Recorder is the sharded event bus.
type Recorder struct {
	shards []shard
	smask  uint32
	// watch, when non-nil, observes every instant event synchronously at
	// Emit time — the flight recorder's trigger tap. Installed once before
	// the run starts, so no synchronization guards the read.
	watch func(Event)
}

// Watch installs a synchronous observer for instant (non-Run) events.
// Call before any Emit races; the observer must be cheap and non-blocking
// on its fast path.
func (r *Recorder) Watch(f func(Event)) { r.watch = f }

// NewRecorder returns a bus holding up to capacity events (min 64),
// sharded for the current process's parallelism.
func NewRecorder(capacity int) *Recorder { return NewSharded(capacity, 0) }

// NewSharded returns a bus holding up to capacity events (min 64 per
// shard) split over the given number of shards, rounded up to a power of
// two (0 selects 8). Size shards to the number of actors so each actor's
// RunStart/RunEnd stream stays single-writer.
func NewSharded(capacity, shards int) *Recorder {
	n := 8
	if shards > 0 {
		n = 1
		for n < shards {
			n <<= 1
		}
	}
	if n > 256 {
		n = 256
	}
	per := capacity / n
	p := 64
	for p < per {
		p <<= 1
	}
	r := &Recorder{shards: make([]shard, n), smask: uint32(n - 1)}
	for i := range r.shards {
		r.shards[i].slots = make([]atomic.Pointer[Event], p)
		r.shards[i].mask = uint64(p - 1)
	}
	return r
}

// Cap returns the total number of events the bus retains.
func (r *Recorder) Cap() int {
	return len(r.shards) * len(r.shards[0].slots)
}

// Record appends one actor-scoped event — the RunStart/RunEnd hot path.
func (r *Recorder) Record(actor int32, kind Kind, at int64) {
	r.Emit(Event{Actor: actor, Kind: kind, At: at})
}

// Emit appends one event, overwriting the oldest in its shard when full.
// Safe for concurrent use from any number of goroutines.
func (r *Recorder) Emit(e Event) {
	sh := &r.shards[uint32(e.Actor+1)&r.smask]
	i := sh.cursor.Add(1) - 1
	sh.slots[i&sh.mask].Store(&e)
	if r.watch != nil && e.Kind.Instant() {
		r.watch(e)
	}
}

// LastEventNs returns the timestamp of the most recently emitted event
// still retained, or 0 when the bus is empty. O(shards): it reads only
// each shard's newest slot, so liveness probes can call it freely.
func (r *Recorder) LastEventNs() int64 {
	var last int64
	for i := range r.shards {
		sh := &r.shards[i]
		c := sh.cursor.Load()
		if c == 0 {
			continue
		}
		if p := sh.slots[(c-1)&sh.mask].Load(); p != nil && p.At > last {
			last = p.At
		}
	}
	return last
}

// Dropped returns how many events have been overwritten, summed over the
// shards (derived from the cursors; nothing is tracked on the hot path).
func (r *Recorder) Dropped() uint64 {
	var d uint64
	for i := range r.shards {
		sh := &r.shards[i]
		if c := sh.cursor.Load(); c > uint64(len(sh.slots)) {
			d += c - uint64(len(sh.slots))
		}
	}
	return d
}

// Len returns the number of currently retained events.
func (r *Recorder) Len() int {
	var n int
	for i := range r.shards {
		sh := &r.shards[i]
		c := sh.cursor.Load()
		if c > uint64(len(sh.slots)) {
			c = uint64(len(sh.slots))
		}
		n += int(c)
	}
	return n
}

// Events returns the retained events merged over the shards in
// chronological order. Each shard's events are gathered oldest-first, so
// same-timestamp events from one shard (one actor) keep their emission
// order through the stable sort.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.Len())
	for i := range r.shards {
		sh := &r.shards[i]
		c := sh.cursor.Load()
		n := c
		if n > uint64(len(sh.slots)) {
			n = uint64(len(sh.slots))
		}
		for j := uint64(0); j < n; j++ {
			if p := sh.slots[(c-n+j)&sh.mask].Load(); p != nil {
				out = append(out, *p)
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// Span is one contiguous busy interval of an actor.
type Span struct {
	Actor      int32
	Start, End int64
}

// pairSpans pairs RunStart/RunEnd events per actor into busy intervals;
// unmatched starts (still running, or their end was overwritten) are
// dropped.
func pairSpans(events []Event) []Span {
	open := map[int32]int64{}
	var spans []Span
	for _, e := range events {
		switch e.Kind {
		case RunStart:
			open[e.Actor] = e.At
		case RunEnd:
			if s, ok := open[e.Actor]; ok {
				spans = append(spans, Span{Actor: e.Actor, Start: s, End: e.At})
				delete(open, e.Actor)
			}
		}
	}
	return spans
}

// shades maps utilization quintiles to characters for the ASCII timeline.
var shades = []byte(" .:*#")

// overlayChar maps a decision kind to its timeline marker. Higher-priority
// kinds win when several decisions land in one bucket.
func overlayChar(k Kind) (byte, int) {
	switch k {
	case Deadlock:
		return 'X', 9
	case Escalate:
		return 'E', 8
	case Restart:
		return 'R', 7
	case BridgeDisconnect:
		return 'D', 6
	case BridgeReconnect:
		return 'U', 5
	case BridgeReplay:
		return 'P', 4
	case ScaleUp, ScaleDown:
		return 'W', 3
	case QueueGrow:
		return 'G', 2
	case BatchUp, BatchDown:
		return 'B', 1
	case Shed, Drop:
		return 's', 1
	case CheckpointSave, CheckpointRestore:
		return 'c', 0
	}
	return 0, -1
}

// markerChar maps a latency-marker lifecycle kind to its lane character.
// Marker events render on their own timeline lane, not the decisions row.
func markerChar(k Kind) (byte, int) {
	switch k {
	case SLOBreach:
		return 'L', 3
	case MarkRetire:
		return 'M', 2
	case MarkStamp:
		return 'S', 1
	case MarkHop:
		return '+', 0
	}
	return 0, -1
}

// graphChar maps a graph-rewrite lifecycle kind to its lane character.
// Rewrite events render on their own timeline lane so epoch seals and
// splices read against the same time axis as utilization.
func graphChar(k Kind) (byte, int) {
	switch k {
	case EpochSeal:
		return '=', 2
	case GraphRemove:
		return '-', 1
	case GraphAdd:
		return '+', 0
	}
	return 0, -1
}

// Timeline renders per-actor utilization over time as an ASCII grid: one
// row per actor, width buckets spanning the recorded window, each cell
// shaded by the fraction of the bucket the actor spent running. Restarts
// and checkpoints are marked on their actor's row; link-, group- and
// bridge-scoped monitor decisions are overlaid on a trailing "decisions"
// row (R restart, E escalate, G resize, B batch, W width, D/U/P bridge
// down/up/replay, s shed/drop, c checkpoint, X deadlock).
func (r *Recorder) Timeline(names []string, width int) string {
	if width < 10 {
		width = 60
	}
	events := r.Events()
	spans := pairSpans(events)
	if len(spans) == 0 {
		return "trace: no complete spans recorded\n"
	}
	lo, hi := spans[0].Start, spans[0].End
	maxActor := int32(0)
	for _, s := range spans {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End > hi {
			hi = s.End
		}
		if s.Actor > maxActor {
			maxActor = s.Actor
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	bucket := float64(hi-lo) / float64(width)

	busy := make([][]float64, maxActor+1)
	for i := range busy {
		busy[i] = make([]float64, width)
	}
	for _, s := range spans {
		b0 := int(float64(s.Start-lo) / bucket)
		b1 := int(float64(s.End-lo) / bucket)
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			cellLo := lo + int64(float64(b)*bucket)
			cellHi := lo + int64(float64(b+1)*bucket)
			overlap := minI64(s.End, cellHi) - maxI64(s.Start, cellLo)
			if overlap > 0 {
				busy[s.Actor][b] += float64(overlap)
			}
		}
	}

	// Decision overlays: per-actor marks and the shared decisions row.
	actorMark := make([]map[int]byte, maxActor+1)
	decisions := make([]byte, width)
	decisionPri := make([]int, width)
	for i := range decisionPri {
		decisions[i] = ' '
		decisionPri[i] = -1
	}
	decided := false
	// Latency-marker lane: marker lifecycle events share one overlay row so
	// end-to-end probes read against the same time axis as utilization.
	marks := make([]byte, width)
	markPri := make([]int, width)
	for i := range markPri {
		marks[i] = ' '
		markPri[i] = -1
	}
	marked := false
	// Graph-rewrite lane: epoch seals and kernel/link splices share one
	// overlay row, present only when a rewrite happened during the run.
	graphRow := make([]byte, width)
	graphPri := make([]int, width)
	for i := range graphPri {
		graphRow[i] = ' '
		graphPri[i] = -1
	}
	rewrote := false
	for _, e := range events {
		if e.At < lo || e.At > hi {
			continue
		}
		b := int(float64(e.At-lo) / bucket)
		if b >= width {
			b = width - 1
		}
		if ch, pri := graphChar(e.Kind); pri >= 0 {
			if pri > graphPri[b] {
				graphPri[b] = pri
				graphRow[b] = ch
				rewrote = true
			}
			continue
		}
		if ch, pri := markerChar(e.Kind); pri >= 0 {
			if pri > markPri[b] {
				markPri[b] = pri
				marks[b] = ch
				marked = true
			}
			continue
		}
		ch, pri := overlayChar(e.Kind)
		if pri < 0 {
			continue
		}
		if e.Actor >= 0 && e.Actor <= maxActor {
			if actorMark[e.Actor] == nil {
				actorMark[e.Actor] = map[int]byte{}
			}
			actorMark[e.Actor][b] = ch
		}
		if pri > decisionPri[b] {
			decisionPri[b] = pri
			decisions[b] = ch
			decided = true
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline over %v (%d buckets, shade = busy fraction)\n",
		time.Duration(hi-lo).Round(time.Microsecond), width)
	for k := int32(0); k <= maxActor; k++ {
		name := fmt.Sprintf("kernel-%d", k)
		if int(k) < len(names) && names[k] != "" {
			name = names[k]
		}
		fmt.Fprintf(&sb, "%-24.24s |", name)
		for b := 0; b < width; b++ {
			if ch, ok := actorMark[k][b]; ok {
				sb.WriteByte(ch)
				continue
			}
			frac := busy[k][b] / bucket
			if frac > 1 {
				frac = 1
			}
			idx := int(frac * float64(len(shades)-1))
			sb.WriteByte(shades[idx])
		}
		sb.WriteString("|\n")
	}
	if decided {
		fmt.Fprintf(&sb, "%-24.24s |%s|\n", "monitor decisions", decisions)
		sb.WriteString("(R restart, E escalate, G resize, B batch, W width, D/U/P bridge, c ckpt, X deadlock)\n")
	}
	if marked {
		fmt.Fprintf(&sb, "%-24.24s |%s|\n", "latency markers", marks)
		sb.WriteString("(S stamp, + hop, M retire, L SLO breach)\n")
	}
	if rewrote {
		fmt.Fprintf(&sb, "%-24.24s |%s|\n", "graph rewrites", graphRow)
		sb.WriteString("(= epoch seal, + kernel/link added, - removed)\n")
	}
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(&sb, "(%d older events overwritten)\n", d)
	}
	return sb.String()
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
