package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Latency provenance: sampled markers that ride the stream from ingest to
// sink. A marker is stamped at an ingest point (a gateway admission or a
// source kernel's first push), deposited on the out-link's MarkerLane
// alongside the batch it sampled, picked up by the consuming kernel on its
// next pop, and re-deposited downstream after the kernel's push — growing
// one Hop per stage crossed. A sink retires the marker into its
// MarkerDomain, which folds the end-to-end latency into per-(tenant,source)
// histograms and the hop log into per-stage residence attribution
// (time-in-queue vs time-in-kernel), so a critical-path breakdown falls
// out of ordinary operation without per-element instrumentation.
//
// Markers flow *alongside* batches, not inside them: the association is
// statistical (the marker entered the lane with the batch and leaves with
// the next pop), which is exactly as strong as the sampling itself and
// keeps the disabled cost to one nil check per port operation and the
// enabled cost to one atomic load per pop.

// Hop is one stage crossing in a marker's provenance log: how long the
// marker (and statistically, its cohort of elements) sat in the stage's
// input queue and how long the stage held it before forwarding.
type Hop struct {
	// Stage names the queue the hop waited in ("src.port -> dst.port" for
	// links, "bridge:<stream>" for a wire crossing).
	Stage string
	// QueueNs is the residence time in the stage's input queue.
	QueueNs int64
	// KernelNs is the time between pickup and the forwarding push — the
	// kernel-side share of the hop.
	KernelNs int64
}

// Marker is one sampled latency probe. A marker has exactly one owner at
// any instant (the stamping goroutine, a lane, or the holding kernel), so
// no field needs synchronization.
type Marker struct {
	// ID is unique within a MarkerDomain; Chrome flow events key on it.
	ID uint64
	// Tenant and Source identify the ingest flow ("" tenant for
	// non-gateway sources; Source is the source kernel or binding name).
	Tenant, Source string
	// IngestNs is the stamp time (UnixNano).
	IngestNs int64
	// Hops is the per-stage provenance log, ingest to sink.
	Hops []Hop

	// enqNs is when the marker was last deposited on a lane; pickNs when
	// it was last picked up; stage names the lane it was picked from.
	// Owned by whoever holds the marker.
	enqNs, pickNs int64
	stage         string
}

// E2ENs returns the retired marker's end-to-end latency (the sum of its
// hops' queue and kernel residencies, which equals retire time - IngestNs).
func (m *Marker) E2ENs() int64 {
	var t int64
	for _, h := range m.Hops {
		t += h.QueueNs + h.KernelNs
	}
	return t
}

// Flow returns the marker's "tenant/source" label (the gateway's Admit
// label convention; bare source when tenant is empty).
func (m *Marker) Flow() string {
	if m.Tenant == "" {
		return m.Source
	}
	return m.Tenant + "/" + m.Source
}

// MarkerLane is the per-link mailbox markers travel in. The common case —
// nothing in flight — is one atomic load; deposits and pickups take a
// short mutex (markers are sampled, so contention is negligible by
// construction).
type MarkerLane struct {
	name string
	n    atomic.Int32
	mu   sync.Mutex
	ms   []*Marker
}

// Init labels a zero lane with the link name it shadows. The runtime keeps
// a link's lane in its per-transaction slab, so a lane is initialised in
// place rather than constructed.
func (l *MarkerLane) Init(name string) { l.name = name }

// Name returns the link label hops through this lane are attributed to.
func (l *MarkerLane) Name() string { return l.name }

// Deposit parks a marker on the lane at time now, closing the marker's
// current hop if it was previously picked up from another lane.
func (l *MarkerLane) Deposit(m *Marker, now int64) {
	if m.pickNs != 0 {
		m.Hops = append(m.Hops, Hop{
			Stage:    m.stage,
			QueueNs:  m.pickNs - m.enqNs,
			KernelNs: now - m.pickNs,
		})
		m.pickNs = 0
	}
	m.enqNs = now
	l.mu.Lock()
	l.ms = append(l.ms, m)
	l.mu.Unlock()
	l.n.Add(1)
}

// Empty reports whether the lane holds no markers (the pop-side fast path).
func (l *MarkerLane) Empty() bool { return l == nil || l.n.Load() == 0 }

// Take drains the lane, recording pickup time and stage on every marker.
// Returns nil when empty.
func (l *MarkerLane) Take(now int64) []*Marker {
	if l.Empty() {
		return nil
	}
	l.mu.Lock()
	ms := l.ms
	l.ms = nil
	l.mu.Unlock()
	if len(ms) > 0 {
		l.n.Add(int32(-len(ms)))
	}
	for _, m := range ms {
		m.pickNs = now
		m.stage = l.name
	}
	return ms
}

// PendingQueueNs returns the open hop's queue residency (valid between a
// lane Take and the closing Deposit/Retire) — the hop-event detail.
func (m *Marker) PendingQueueNs() int64 { return m.pickNs - m.enqNs }

// BeginTransit closes the marker's open hop at time now and stamps now as
// the carrier entry time — the sender side of a bridge handing the marker
// to the wire instead of a lane.
func (m *Marker) BeginTransit(now int64) {
	if m.pickNs != 0 {
		m.Hops = append(m.Hops, Hop{
			Stage:    m.stage,
			QueueNs:  m.pickNs - m.enqNs,
			KernelNs: now - m.pickNs,
		})
		m.pickNs = 0
	}
	m.enqNs = now
}

// EndTransit appends the carrier crossing as one hop named stage — the
// receiver side of a bridge. The marker is then ready for a lane Deposit.
// Cross-node wall clocks are assumed loosely synchronized; a skewed hop
// shows as a negative queue residency rather than corrupting later hops.
func (m *Marker) EndTransit(stage string, now int64) {
	m.Hops = append(m.Hops, Hop{Stage: stage, QueueNs: now - m.enqNs})
	m.enqNs = now
}

// latBuckets is the histogram resolution: log2 buckets of nanoseconds,
// bucket i holding latencies in [2^i, 2^(i+1)). 48 buckets span sub-ns to
// ~3.2 days.
const latBuckets = 48

// FlowStats aggregates retired end-to-end latencies for one
// (tenant, source) flow.
type FlowStats struct {
	Tenant, Source string
	Count          uint64
	SumNs          int64
	MaxNs          int64
	Buckets        [latBuckets]uint64
}

// record folds one latency in.
func (f *FlowStats) record(ns int64) {
	f.Count++
	f.SumNs += ns
	if ns > f.MaxNs {
		f.MaxNs = ns
	}
	f.Buckets[bucketOf(ns)]++
}

func bucketOf(ns int64) int {
	b := 0
	for v := ns; v > 1 && b < latBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// Quantile estimates the q-th latency quantile (0 < q <= 1) from the log2
// histogram by linear interpolation inside the holding bucket.
func (f *FlowStats) Quantile(q float64) time.Duration {
	if f.Count == 0 {
		return 0
	}
	rank := q * float64(f.Count)
	var seen float64
	for i, c := range f.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := int64(1) << uint(i)
			if i == 0 {
				lo = 0
			}
			hi := int64(1) << uint(i+1)
			frac := (rank - seen) / float64(c)
			return time.Duration(lo + int64(frac*float64(hi-lo)))
		}
		seen += float64(c)
	}
	return time.Duration(f.MaxNs)
}

// Mean returns the flow's mean end-to-end latency.
func (f *FlowStats) Mean() time.Duration {
	if f.Count == 0 {
		return 0
	}
	return time.Duration(f.SumNs / int64(f.Count))
}

// TenantQuantile estimates the q-th end-to-end latency quantile across
// every flow belonging to tenant, merging the per-flow histograms.
// ok is false when no marker of that tenant has retired yet.
func (d *MarkerDomain) TenantQuantile(tenant string, q float64) (time.Duration, bool) {
	var agg FlowStats
	d.mu.Lock()
	for _, f := range d.flows {
		if f.Tenant != tenant {
			continue
		}
		agg.Count += f.Count
		agg.SumNs += f.SumNs
		if f.MaxNs > agg.MaxNs {
			agg.MaxNs = f.MaxNs
		}
		for i, c := range f.Buckets {
			agg.Buckets[i] += c
		}
	}
	d.mu.Unlock()
	if agg.Count == 0 {
		return 0, false
	}
	return agg.Quantile(q), true
}

// StageStats aggregates residence attribution for one stage across all
// retired markers that crossed it.
type StageStats struct {
	Stage    string
	Count    uint64
	QueueNs  int64
	KernelNs int64
}

// recentRetired bounds the retired-marker ring kept for post-mortems.
const recentRetired = 256

// MarkerDomain owns one execution's marker lifecycle: ID allotment,
// sampling stride, retirement aggregation, and the SLO trigger.
type MarkerDomain struct {
	stride uint32
	seq    atomic.Uint64
	sloNs  int64
	// onBreach fires (outside the domain lock) when a retired marker's
	// end-to-end latency exceeds the SLO. Set before the run starts.
	onBreach func(m *Marker, e2e time.Duration)

	retiredN atomic.Uint64

	mu     sync.Mutex
	flows  map[string]*FlowStats
	stages map[string]*StageStats
	recent [recentRetired]*Marker
	rn     uint64
}

// NewMarkerDomain returns a domain sampling one marker every stride
// elements per source (stride < 1 selects 1).
func NewMarkerDomain(stride int) *MarkerDomain {
	if stride < 1 {
		stride = 1
	}
	return &MarkerDomain{
		stride: uint32(stride),
		flows:  map[string]*FlowStats{},
		stages: map[string]*StageStats{},
	}
}

// Stride returns the sampling stride (one marker per stride elements).
func (d *MarkerDomain) Stride() uint32 { return d.stride }

// SetSLO installs the end-to-end latency objective and its breach hook;
// zero disables the check. Call before the run starts.
func (d *MarkerDomain) SetSLO(slo time.Duration, onBreach func(m *Marker, e2e time.Duration)) {
	d.sloNs = int64(slo)
	d.onBreach = onBreach
}

// Stamp mints one marker for the given flow at time now.
func (d *MarkerDomain) Stamp(tenant, source string, now int64) *Marker {
	return &Marker{
		ID:       d.seq.Add(1),
		Tenant:   tenant,
		Source:   source,
		IngestNs: now,
	}
}

// Retire closes the marker's final hop at time now and folds it into the
// domain's aggregates. It returns the end-to-end latency. sinkStage labels
// the retiring kernel's side of the final hop (already closed by the
// caller if the marker was deposited rather than held).
func (d *MarkerDomain) Retire(m *Marker, now int64) time.Duration {
	if m.pickNs != 0 {
		m.Hops = append(m.Hops, Hop{
			Stage:   m.stage,
			QueueNs: m.pickNs - m.enqNs,
			// Retirement happens at pickup: the sink's service time is not
			// part of the element's wait, so KernelNs stays 0 here.
		})
		m.pickNs = 0
	}
	e2e := now - m.IngestNs
	if e2e < 0 {
		e2e = 0
	}
	d.retiredN.Add(1)
	d.mu.Lock()
	flow := m.Flow()
	f := d.flows[flow]
	if f == nil {
		f = &FlowStats{Tenant: m.Tenant, Source: m.Source}
		d.flows[flow] = f
	}
	f.record(e2e)
	for _, h := range m.Hops {
		s := d.stages[h.Stage]
		if s == nil {
			s = &StageStats{Stage: h.Stage}
			d.stages[h.Stage] = s
		}
		s.Count++
		s.QueueNs += h.QueueNs
		s.KernelNs += h.KernelNs
	}
	d.recent[d.rn%recentRetired] = m
	d.rn++
	d.mu.Unlock()
	if d.sloNs > 0 && e2e > d.sloNs && d.onBreach != nil {
		d.onBreach(m, time.Duration(e2e))
	}
	return time.Duration(e2e)
}

// Retired returns how many markers have been retired.
func (d *MarkerDomain) Retired() uint64 { return d.retiredN.Load() }

// Stamped returns how many markers have been minted; on a run that drained
// to its sinks it equals Retired.
func (d *MarkerDomain) Stamped() uint64 { return d.seq.Load() }

// Flows returns a stable snapshot of per-flow latency aggregates, sorted
// by flow label.
func (d *MarkerDomain) Flows() []FlowStats {
	d.mu.Lock()
	out := make([]FlowStats, 0, len(d.flows))
	for _, f := range d.flows {
		out = append(out, *f)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// Stages returns a stable snapshot of per-stage residence attribution,
// sorted by total residence (descending) — the critical path reads top
// down.
func (d *MarkerDomain) Stages() []StageStats {
	d.mu.Lock()
	out := make([]StageStats, 0, len(d.stages))
	for _, s := range d.stages {
		out = append(out, *s)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		ti := out[i].QueueNs + out[i].KernelNs
		tj := out[j].QueueNs + out[j].KernelNs
		if ti != tj {
			return ti > tj
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// Recent returns the most recently retired markers, oldest first (bounded
// by the post-mortem ring).
func (d *MarkerDomain) Recent() []*Marker {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.rn
	if n > recentRetired {
		n = recentRetired
	}
	out := make([]*Marker, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.recent[(d.rn-n+i)%recentRetired])
	}
	return out
}

// Summary renders the domain's aggregates as the text block shared by
// Report and the flight recorder's post-mortem.
func (d *MarkerDomain) Summary() string {
	flows := d.Flows()
	if len(flows) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("end-to-end latency (sampled markers):\n")
	sb.WriteString("  flow                            count      p50      p99      max\n")
	for _, f := range flows {
		label := f.Source
		if f.Tenant != "" {
			label = f.Tenant + "/" + f.Source
		}
		fmt.Fprintf(&sb, "  %-30.30s %6d %8v %8v %8v\n",
			label, f.Count,
			f.Quantile(0.50).Round(time.Microsecond),
			f.Quantile(0.99).Round(time.Microsecond),
			time.Duration(f.MaxNs).Round(time.Microsecond))
	}
	stages := d.Stages()
	if len(stages) > 0 {
		sb.WriteString("  per-stage residence (queue / kernel, mean per marker):\n")
		for _, s := range stages {
			if s.Count == 0 {
				continue
			}
			fmt.Fprintf(&sb, "    %-34.34s %8v / %-8v (%d markers)\n",
				s.Stage,
				(time.Duration(s.QueueNs) / time.Duration(s.Count)).Round(time.Microsecond),
				(time.Duration(s.KernelNs) / time.Duration(s.Count)).Round(time.Microsecond),
				s.Count)
		}
	}
	return sb.String()
}

// EncodeMarkers packs markers into the compact binary sidecar carried by
// bridge frames: a uvarint count, then per marker ID, IngestNs, enqNs,
// tenant, source, and the hop log. The encoding is independent of the
// frame's payload encoding (gob or raw), so both wire modes carry it
// unchanged, and the bytes are immutable once encoded — replayed frames
// resend the identical sidecar.
func EncodeMarkers(ms []*Marker) []byte {
	if len(ms) == 0 {
		return nil
	}
	var b []byte
	b = appendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		b = appendUvarint(b, m.ID)
		b = appendUvarint(b, uint64(m.IngestNs))
		b = appendUvarint(b, uint64(m.enqNs))
		b = appendString(b, m.Tenant)
		b = appendString(b, m.Source)
		b = appendUvarint(b, uint64(len(m.Hops)))
		for _, h := range m.Hops {
			b = appendString(b, h.Stage)
			b = appendUvarint(b, zigzag(h.QueueNs))
			b = appendUvarint(b, zigzag(h.KernelNs))
		}
	}
	return b
}

// DecodeMarkers unpacks a sidecar produced by EncodeMarkers. A malformed
// sidecar returns an error rather than partial markers.
func DecodeMarkers(b []byte) ([]*Marker, error) {
	if len(b) == 0 {
		return nil, nil
	}
	d := &markDec{b: b}
	n := d.uvarint()
	if n > uint64(len(b)) { // each marker costs >= 1 byte
		return nil, fmt.Errorf("marker sidecar: implausible count %d", n)
	}
	ms := make([]*Marker, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		m := &Marker{
			ID:       d.uvarint(),
			IngestNs: int64(d.uvarint()),
		}
		m.enqNs = int64(d.uvarint())
		m.Tenant = d.str()
		m.Source = d.str()
		hn := d.uvarint()
		if hn > uint64(len(b)) {
			return nil, fmt.Errorf("marker sidecar: implausible hop count %d", hn)
		}
		for j := uint64(0); j < hn && d.err == nil; j++ {
			m.Hops = append(m.Hops, Hop{
				Stage:    d.str(),
				QueueNs:  unzigzag(d.uvarint()),
				KernelNs: unzigzag(d.uvarint()),
			})
		}
		ms = append(ms, m)
	}
	if d.err != nil {
		return nil, d.err
	}
	return ms, nil
}

type markDec struct {
	b   []byte
	off int
	err error
}

func (d *markDec) uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		if d.off >= len(d.b) {
			d.err = fmt.Errorf("marker sidecar: truncated varint")
			return 0
		}
		c := d.b[d.off]
		d.off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			d.err = fmt.Errorf("marker sidecar: varint overflow")
			return 0
		}
	}
}

func (d *markDec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(d.off)+n > uint64(len(d.b)) {
		d.err = fmt.Errorf("marker sidecar: truncated string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
