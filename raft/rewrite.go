package raft

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"raftlib/internal/core"
	"raftlib/internal/graph"
	"raftlib/internal/mapper"
	"raftlib/internal/qmodel"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

// This file implements graph construction as transactions under graph
// epochs: every kernel and link of an execution joins it through one.
//
// Exe is epoch 0. ExeAsync builds an empty execution — an empty registry
// and every runtime service built empty — and stages the whole Map as one
// transaction against the empty graph. Its validate, build and join passes
// below are every transaction's: build is the only place a kernel gets its
// actor, gate, resilience wrap and registry entry, and a link its queue,
// port bindings, marker lane and registry entry, and it hands the monitor,
// the deadlock watch and the rate estimator what it added in one call
// each; join hands the scheduler the new actors and links in one Spawn.
// What a rewrite adds is adopted exactly as what epoch 0 builds. Epoch 0
// leaves no trace of being a transaction: the epoch stays 0, no GraphAdd
// or EpochSeal events are emitted, and nothing carries a join stamp.
//
// A rewrite (Rewriter.Begin, staged changes, Tx.Commit) is every later
// epoch, against the running graph. It commits in three passes:
//
//  1. Build and join (reversible). The same validate, build and join
//     passes; the new kernels start on the running scheduler (they block
//     harmlessly on their empty inputs). Nothing existing is touched: an
//     endpoint on a continuing kernel is staged instead of bound — a
//     consumer's as a replacement binding (Port.pending), armed but inert
//     until the old stream closes.
//  2. Seal and splice. Every continuing producer whose output moves is
//     paused at a step boundary (core.Gate, downstream-first so blocked
//     kernels drain), its output ports are rebound to the new streams,
//     and the epoch is sealed: the abandoned streams are closed. All
//     gates release together; from this step the new structure carries
//     the traffic. Consumers migrate on their own goroutines once their
//     sealed stream drains — FIFO order, signals and latency markers are
//     preserved, and the untouched rest of the graph never stops.
//  3. Retire. Removed source kernels are gated out; the closure cascade
//     stops the other removed kernels at natural EOF. Once they finish,
//     their streams leave the monitor, the freeze scan and the estimator,
//     and the registry stamps departure times for the report.
//
// Only sealed links ever pause, and only their producers, only for the
// rebind — there is no global stop-the-world.

// sealTimeout bounds how long a commit waits for one producer to reach a
// step boundary; a kernel parked on an untouched empty input cannot be
// paused and fails the transaction cleanly (documented limitation: splice
// around idle kernels requires traffic or their removal).
const sealTimeout = 2 * time.Second

// drainTimeout bounds how long a commit waits for removed kernels to
// drain and stop, and for migrated consumers to adopt their replacement
// streams.
const drainTimeout = 10 * time.Second

// registry is the live kernel/link book of one execution, filled by the
// build pass of every transaction, epoch 0 included. The abort pathway, the
// runtime services, the report and rewrite validation all read it.
type registry struct {
	mu    sync.Mutex
	start time.Time
	// actors is append-only, indexed by actor ID (= trace id); links is
	// append-only in link-ID order. Departed entries stay (their telemetry
	// is still the run's history) with left stamps.
	actors []*actorEntry
	links  []*linkEntry
	epoch  int64
}

type actorEntry struct {
	k  Kernel
	kb *KernelBase
	a  *core.Actor
	// wait is a replica adapter's wait record (nil for any other kernel):
	// the scheduler asks it whether the adapter can be served (Ready) and
	// waits on the ends it holds (Await).
	wait     *adapterWait
	joinedNs int64
	leftNs   int64
	left     bool
}

type linkEntry struct {
	l        *Link
	li       *core.LinkInfo
	joinedNs int64
	leftNs   int64
	removed  bool
}

// A build pass allocates its kernels' and links' state as a few arrays per
// transaction (DESIGN "Per-transaction slabs"), which live as long as the
// execution. The hot ones are padded so that no line holds two kernels' or
// two streams' hot words: a kernelSlot, the actor and gate its goroutine
// writes on every step, to 128-byte pairs of lines (the unit the
// adjacent-line prefetcher moves); a linkSlot, which a stream's ends read
// per window, to one line. The cold ones, written at build, rewrite and
// report time, are packed: actorEntry, linkRecord and the marker lanes.
type kernelSlot struct {
	actor core.Actor
	gate  core.Gate
	_     [127 - (kernelSlotBytes+127)%128]byte
}

type linkSlot struct {
	batch core.BatchControl
	async asyncCell
	_     [63 - (linkSlotBytes+63)%64]byte
}

// linkRecord is a stream's cold record: its registry entry and the engine's
// view of it, to which the entry points.
type linkRecord struct {
	linkEntry
	info core.LinkInfo
}

// kernelSlotBytes and linkSlotBytes are the slots' sizes before padding.
const (
	kernelSlotBytes = unsafe.Sizeof(core.Actor{}) + unsafe.Sizeof(core.Gate{})
	linkSlotBytes   = unsafe.Sizeof(core.BatchControl{}) + unsafe.Sizeof(asyncCell{})
)

// sinceStart is the offset of now from the start of the run, and 0 before
// the run starts — so what epoch 0 builds carries no join stamp.
func (r *registry) sinceStart() int64 {
	if r.start.IsZero() {
		return 0
	}
	return int64(time.Since(r.start))
}

// closeAllQueues force-closes every stream, static and spliced — the
// global abort pathway behind KernelBase.Raise and the deadlock watch.
func (r *registry) closeAllQueues() {
	r.mu.Lock()
	links := append([]*linkEntry(nil), r.links...)
	r.mu.Unlock()
	for _, le := range links {
		le.li.Queue.Close()
	}
}

// names returns every kernel's name indexed by actor ID (= trace id), for
// the flight recorder's trace tracks.
func (r *registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.actors))
	for i, ae := range r.actors {
		out[i] = ae.a.Name
	}
	return out
}

// live lists the links and kernels that are part of the graph now, for the
// exporters (/metrics, LiveStats) whose series are keyed by name: departed
// entries are skipped, since a reaped template instance comes back under
// the same kernel and link names. While a commit that re-links the same
// ports is in flight, the sealed link and its replacement share a name;
// only the newer one is listed.
func (r *registry) live() ([]*linkEntry, []*actorEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	newest := map[string]int{}
	for i, le := range r.links {
		if !le.removed {
			newest[le.li.Name] = i
		}
	}
	links := make([]*linkEntry, 0, len(newest))
	for i, le := range r.links {
		if !le.removed && newest[le.li.Name] == i {
			links = append(links, le)
		}
	}
	var actors []*actorEntry
	for _, ae := range r.actors {
		if !ae.left {
			actors = append(actors, ae)
		}
	}
	return links, actors
}

// liveKernel returns the live actor entry for k, or nil.
func (r *registry) liveKernel(kb *KernelBase) *actorEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ae := range r.actors {
		if ae.k.kernelBase() == kb && !ae.left {
			return ae
		}
	}
	return nil
}

// liveLink returns the live link entry for l, or nil.
func (r *registry) liveLink(l *Link) *linkEntry {
	if les := r.linksWhere(func(x *Link) bool { return x == l }); len(les) > 0 {
		return les[0]
	}
	return nil
}

// graph returns every kernel and link the execution has had, departed
// ones included, in registry order — the order of the report's rows.
func (r *registry) graph() (kernels []Kernel, links []*Link) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ae := range r.actors {
		kernels = append(kernels, ae.k)
	}
	for _, le := range r.links {
		links = append(links, le.l)
	}
	return kernels, links
}

// linksWhere returns the live links for which keep holds, in registry
// order.
func (r *registry) linksWhere(keep func(*Link) bool) []*linkEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*linkEntry
	for _, le := range r.links {
		if !le.removed && keep(le.l) {
			out = append(out, le)
		}
	}
	return out
}

// linksFrom returns the live links out of k, in registry order.
func (r *registry) linksFrom(k Kernel) []*linkEntry {
	return r.linksWhere(func(l *Link) bool { return l.Src == k })
}

// Rewriter is the live graph-rewrite handle of one execution. Obtain it
// with Execution.Rewriter, open a transaction with Begin, stage changes,
// and Commit — the runtime splices them in under a graph epoch while the
// untouched parts of the application keep streaming. One transaction
// commits at a time.
type Rewriter struct {
	ex *Execution
	mu sync.Mutex
}

// Epoch returns the number of committed rewrite epochs so far.
func (r *Rewriter) Epoch() int64 {
	r.ex.reg.mu.Lock()
	defer r.ex.reg.mu.Unlock()
	return r.ex.reg.epoch
}

// Tx is one staged rewrite transaction: a set of links and kernels to add
// and remove, applied atomically by Commit. Stage removals before the
// additions that reuse their ports.
type Tx struct {
	rw   *Rewriter
	done bool

	addKernels []Kernel
	addLinks   []*Link
	rmKernels  []Kernel
	rmLinks    []*Link
	claimed    map[*Port]*Link
}

// Begin opens a rewrite transaction.
func (r *Rewriter) Begin() *Tx {
	return &Tx{rw: r, claimed: map[*Port]*Link{}}
}

// effectiveLink is the link a port will be bound to once in-flight
// migrations settle: the staged replacement when one is armed, else the
// current binding.
func effectiveLink(p *Port) *Link {
	if nb := p.pending.Load(); nb != nil {
		return nb.link
	}
	return p.link
}

// RemoveLink stages the removal of a live link. The stream is sealed at
// commit: its producer is rebound (or retired) first, in-flight elements
// drain to the consumer, then it closes.
func (t *Tx) RemoveLink(l *Link) error {
	if t.done {
		return errRewriteDone
	}
	if l == nil {
		return errors.New("raft: RemoveLink(nil)")
	}
	for _, x := range t.rmLinks {
		if x == l {
			return nil
		}
	}
	t.rmLinks = append(t.rmLinks, l)
	return nil
}

// RemoveKernel stages the removal of a live kernel. Every link touching
// it must be removed in the same transaction.
func (t *Tx) RemoveKernel(k Kernel) error {
	if t.done {
		return errRewriteDone
	}
	if k == nil {
		return errors.New("raft: RemoveKernel(nil)")
	}
	for _, x := range t.rmKernels {
		if x == k {
			return nil
		}
	}
	t.rmKernels = append(t.rmKernels, k)
	return nil
}

// Link stages a new stream between two kernels — existing ones (whose
// affected ports must be freed by removals staged earlier in this
// transaction) or new ones, which join the graph at commit. Options
// mirror Map.Link, AllowConvert included: the cast kernel joins with the
// link.
func (t *Tx) Link(src, dst Kernel, opts ...LinkOption) (*Link, error) {
	if t.done {
		return nil, errRewriteDone
	}
	l := &Link{}
	for _, o := range opts {
		o(&l.linkSpec)
	}
	if src == nil || dst == nil {
		return nil, fmt.Errorf("raft: Link requires non-nil kernels")
	}
	if err := t.adopt(src); err != nil {
		return nil, err
	}
	if err := t.adopt(dst); err != nil {
		return nil, err
	}
	// A port is free if neither a live link this transaction keeps nor
	// another staged link holds it.
	free := func(p *Port) bool { return !t.bound(p, t.isLive) }
	const remedy = " (remove its link in this transaction first)"
	sp, err := pickPort(src.kernelBase(), Out, l.from, free, remedy)
	if err != nil {
		return nil, err
	}
	dp, err := pickPort(dst.kernelBase(), In, l.to, free, remedy)
	if err != nil {
		return nil, err
	}
	if sp.Type() != dp.Type() {
		if l.convert {
			return convertedLink(t.Link, src, dst, sp, dp, l.linkSpec)
		}
		return nil, fmt.Errorf("raft: %w linking %s -> %s", ErrTypeMismatch, sp, dp)
	}
	l.Src, l.Dst, l.SrcPort, l.DstPort = src, dst, sp, dp
	t.claimed[sp] = l
	t.claimed[dp] = l
	t.addLinks = append(t.addLinks, l)
	return l, nil
}

var errRewriteDone = errors.New("raft: rewrite transaction already committed")

// adopt tracks a kernel the transaction introduces (no-op for live ones).
func (t *Tx) adopt(k Kernel) error {
	kb := k.kernelBase()
	if t.rw.ex.reg.liveKernel(kb) != nil {
		return nil
	}
	if kb.m != nil && kb.m != t.rw.ex.m {
		return fmt.Errorf("raft: kernel %q already belongs to another map", kernelName(k))
	}
	for _, x := range t.addKernels {
		if x.kernelBase() == kb {
			return nil
		}
	}
	t.addKernels = append(t.addKernels, k)
	return nil
}

// bound reports whether port p carries a stream once t commits: a link
// staged in t claims it, or a live link that t does not remove holds it.
// A port whose link an earlier commit removed — a group adapter's slot
// after a scale-down — is free again.
func (t *Tx) bound(p *Port, live func(*Link) bool) bool {
	if t.claimed[p] != nil {
		return true
	}
	el := effectiveLink(p)
	return el != nil && live(el) && !slices.Contains(t.rmLinks, el)
}

// isLive reports whether l is a live link of the execution.
func (t *Tx) isLive(l *Link) bool { return t.rw.ex.reg.liveLink(l) != nil }

// freeSlot returns the first of slots that is free in t, or nil.
func (t *Tx) freeSlot(slots []*Port) *Port {
	for _, p := range slots {
		if !t.bound(p, t.isLive) {
			return p
		}
	}
	return nil
}

// stagedLink is an allocated stream with an endpoint on a continuing
// kernel, which must not see it before the seal: a continuing producer
// (srcDefer) is rebound under its gate at the seal, and a continuing
// consumer migrates by itself through pending.
type stagedLink struct {
	stream
	l        *Link
	srcDefer bool
	pending  *pendingRebind
}

// built is what one build pass added: the registry entries of the new
// kernels and links, the engine's view of both in the same order, and the
// links staged on continuing kernels.
type built struct {
	actors []*actorEntry
	links  []*linkEntry
	as     []*core.Actor
	lis    []*core.LinkInfo
	staged []stagedLink
	// armed reports that join installed the staged consumer bindings;
	// spawned that it handed the new actors to the scheduler.
	armed   bool
	spawned bool
}

// Commit applies the transaction to the running graph. On success the
// new structure carries the traffic and the removed kernels have drained
// and stopped; on error the graph is unchanged (additions are unwound).
func (t *Tx) Commit() error {
	r := t.rw
	r.mu.Lock()
	defer r.mu.Unlock()
	if t.done {
		return errRewriteDone
	}
	t.done = true
	ex := r.ex
	select {
	case <-ex.done:
		return errors.New("raft: execution already completed")
	default:
	}
	if len(t.addLinks) == 0 && len(t.rmLinks) == 0 && len(t.rmKernels) == 0 {
		return nil
	}
	if _, err := t.validate(ex.reg); err != nil {
		return err
	}

	ex.reg.mu.Lock()
	ex.reg.epoch++
	epoch := ex.reg.epoch
	ex.reg.mu.Unlock()

	b := ex.build(t, nil)
	if err := ex.join(b, epoch); err != nil {
		ex.rollback(b, epoch)
		return err
	}
	if err := ex.sealAndSplice(t, b, epoch); err != nil {
		ex.rollback(b, epoch)
		return err
	}
	return ex.retireRemoved(t, epoch)
}

// validate checks the transaction against the live graph in reg and
// verifies the prospective graph structurally before anything is touched.
// The graph it returns lists the surviving live kernels, then t.addKernels
// in order. Map.Validate runs it against an empty registry, and Exe's epoch
// 0 against the empty shell, so a static map and a rewrite are refused with
// the same words.
func (t *Tx) validate(reg *registry) (*graph.Graph, error) {
	rmLink := map[*Link]bool{}
	for _, l := range t.rmLinks {
		le := reg.liveLink(l)
		if le == nil {
			return nil, fmt.Errorf("raft: RemoveLink: %s.%s -> %s.%s is not a live link of this execution",
				l.Src.kernelBase().Name(), l.SrcPort.name, l.Dst.kernelBase().Name(), l.DstPort.name)
		}
		// An ordered group restores order by position: its split's outputs
		// and its merge's inputs stay as epoch 0 built them.
		_, fromSplit := l.Src.(*orderedSplit)
		_, intoMerge := l.Dst.(*orderedMerge)
		if fromSplit || intoMerge {
			return nil, fmt.Errorf("raft: RemoveLink: %s is a position of an ordered (AsReorderable) group", le.li.Name)
		}
		rmLink[l] = true
	}
	rmKernel := map[*KernelBase]bool{}
	for _, k := range t.rmKernels {
		kb := k.kernelBase()
		if reg.liveKernel(kb) == nil {
			return nil, fmt.Errorf("raft: RemoveKernel: %q is not a live kernel of this execution", kb.Name())
		}
		rmKernel[kb] = true
	}

	// Name uniqueness: the supervisor's checkpoint store and the report
	// are keyed by kernel name.
	reg.mu.Lock()
	names := map[string]bool{}
	liveKernels := make([]*actorEntry, 0, len(reg.actors))
	for _, ae := range reg.actors {
		if !ae.left {
			names[ae.a.Name] = true
			liveKernels = append(liveKernels, ae)
		}
	}
	liveLinks := make([]*linkEntry, 0, len(reg.links))
	live := make(map[*Link]bool, len(reg.links))
	for _, le := range reg.links {
		if !le.removed {
			liveLinks = append(liveLinks, le)
			live[le.l] = true
		}
	}
	reg.mu.Unlock()
	isLive := func(l *Link) bool { return live[l] }
	for _, k := range t.addKernels {
		name := k.kernelBase().name
		if name != "" && names[name] {
			return nil, fmt.Errorf("raft: added kernel name %q is already in use", name)
		}
	}

	// Every live link touching a removed kernel must be removed with it.
	for _, le := range liveLinks {
		if rmLink[le.l] {
			continue
		}
		if rmKernel[le.l.Src.kernelBase()] || rmKernel[le.l.Dst.kernelBase()] {
			return nil, fmt.Errorf("raft: removed kernel still has live link %s (remove it in the same transaction)", le.li.Name)
		}
	}

	// Prospective graph: live structure minus removals plus additions, with
	// every port of every surviving kernel bound ("the graph is first
	// checked to ensure it is fully connected", §4.2) — except the slots of
	// a fan adapter, of which at least one must be.
	nKernels := len(liveKernels) + len(t.addKernels)
	g := &graph.Graph{
		Nodes: make([]graph.Node, 0, nKernels),
		Edges: make([]graph.Edge, 0, len(liveLinks)+len(t.addLinks)),
	}
	ids := make(map[*KernelBase]int, nKernels)
	addNode := func(k Kernel) error {
		kb := k.kernelBase()
		sl, fan := k.(slotted)
		linkedSlots := 0
		for _, ports := range [2][]*Port{kb.ins, kb.outs} {
			for _, p := range ports {
				slot := fan && p.dir == sl.slotDir()
				switch {
				case t.bound(p, isLive):
					if slot {
						linkedSlots++
					}
				case !slot:
					return fmt.Errorf("raft: port %s is not linked", p)
				}
			}
		}
		if fan && linkedSlots == 0 {
			return fmt.Errorf("raft: kernel %q has none of its %s slots linked", kb.Name(), sl.slotDir())
		}
		ids[kb] = g.AddNode(kb.Name(), kb.Weight())
		return nil
	}
	for _, ae := range liveKernels {
		if !rmKernel[ae.k.kernelBase()] {
			if err := addNode(ae.k); err != nil {
				return nil, err
			}
		}
	}
	for _, k := range t.addKernels {
		if err := addNode(k); err != nil {
			return nil, err
		}
	}
	addEdge := func(l *Link) error {
		src, ok1 := ids[l.Src.kernelBase()]
		dst, ok2 := ids[l.Dst.kernelBase()]
		if !ok1 || !ok2 {
			return fmt.Errorf("raft: staged link %s.%s -> %s.%s references a kernel outside the rewritten graph",
				l.Src.kernelBase().Name(), l.SrcPort.name, l.Dst.kernelBase().Name(), l.DstPort.name)
		}
		g.AddEdge(src, dst, l.SrcPort.name, l.DstPort.name, l.SrcPort.Type().String(), 1)
		return nil
	}
	for _, le := range liveLinks {
		if !rmLink[le.l] {
			if err := addEdge(le.l); err != nil {
				return nil, err
			}
		}
	}
	for _, l := range t.addLinks {
		if err := addEdge(l); err != nil {
			return nil, err
		}
	}
	if err := g.Verify(); err != nil {
		return nil, err
	}
	return g, nil
}

// build is the transaction's construction pass — at epoch 0, the whole of
// Exe's construction. Every added kernel gets its actor, gate, resilience
// wrap and registry entry; every added link its queue, port bindings,
// marker lane and registry entry; and the monitor, the deadlock watch and
// the estimator adopt the additions (adopt). An endpoint on a continuing
// kernel is staged instead of bound. place, when non-nil, is the mapper's
// assignment indexed like t.addKernels; kernels added by a rewrite run on
// place 0.
func (ex *Execution) build(t *Tx, place mapper.Assignment) *built {
	cfg, reg := ex.cfg, ex.reg
	now := reg.sinceStart()
	reg.mu.Lock()
	firstActor, firstLink := len(reg.actors), len(reg.links)
	reg.mu.Unlock()

	// Kernels' and links' hot and cold state are allocated as a few slabs
	// per transaction, and ring headers as one per element type: epoch 0
	// adds every kernel and link of the map at once.
	kernels := make([]kernelSlot, len(t.addKernels))
	entries := make([]actorEntry, len(t.addKernels))
	for i, k := range t.addKernels {
		kb := k.kernelBase()
		kb.m = ex.m
		if kb.name == "" {
			kb.name = fmt.Sprintf("%s#%d", kernelName(k), firstActor+i)
		}
		p := 0
		if place != nil {
			p = place[i]
		}
		wireActorResilience(cfg, k, kernels[i].buildActor(&entries[i], k, firstActor+i, p, ex.rec, ex.stride))
		entries[i].joinedNs = now
	}

	// Actor IDs continue the registry sequence, so a kernel joins in this
	// transaction exactly when its ID is a new one.
	joins := func(k Kernel) bool { return int(k.kernelBase().actor) >= firstActor }
	b := &built{}
	hot := make([]linkSlot, len(t.addLinks))
	links := make([]linkRecord, len(t.addLinks))
	var lanes []trace.MarkerLane
	if cfg.markers != nil {
		lanes = make([]trace.MarkerLane, len(t.addLinks))
	}
	names := linkNames(t.addLinks)
	rings, provided := streamRings(t.addLinks)
	for i, l := range t.addLinks {
		lr := &links[i]
		var lane *trace.MarkerLane
		if lanes != nil {
			lane = &lanes[i]
		}
		s := stagedLink{stream: lr.newStream(cfg, &hot[i], lane, l, rings[i], provided[i], firstLink+i, names[i]), l: l, srcDefer: !joins(l.Src)}
		dstJoins := joins(l.Dst)
		// Marker plumbing is written only on joining kernels: a continuing
		// endpoint already carries it, and its stamping hot path is live.
		if cfg.markers != nil {
			rigMarkers(cfg.markers, l, !s.srcDefer, dstJoins)
		}
		if !s.srcDefer {
			s.bindPort(l.SrcPort, l)
		}
		if dstJoins {
			s.bindPort(l.DstPort, l)
		} else {
			s.pending = &pendingRebind{
				q: s.q, ls: s.ls, link: l, lane: s.lane,
				applied: make(chan struct{}),
			}
		}
		if s.srcDefer || s.pending != nil {
			b.staged = append(b.staged, s)
		}
		s.li.SrcActor = int(l.Src.kernelBase().actor)
		s.li.DstActor = int(l.Dst.kernelBase().actor)
		lr.l, lr.li, lr.joinedNs = l, s.li, now
	}

	reg.mu.Lock()
	reg.actors = slices.Grow(reg.actors, len(kernels))
	for i := range entries {
		reg.actors = append(reg.actors, &entries[i])
	}
	reg.links = slices.Grow(reg.links, len(links))
	for i := range links {
		reg.links = append(reg.links, &links[i].linkEntry)
	}
	b.actors = reg.actors[firstActor:len(reg.actors):len(reg.actors)]
	b.links = reg.links[firstLink:len(reg.links):len(reg.links)]
	reg.mu.Unlock()

	b.as = make([]*core.Actor, len(entries))
	for i := range entries {
		b.as[i] = entries[i].a
	}
	b.lis = make([]*core.LinkInfo, len(links))
	for i := range links {
		b.lis[i] = &links[i].info
	}
	ex.adopt(b)
	return b
}

// adopt hands the services that watch the graph what one build pass added,
// in one call each: the monitor its links, the deadlock watch its actors
// and links, the estimator their taps — kernel taps read invocation counts
// off each actor's service timer, link taps flow, blocked time and
// occupancy off each ring's telemetry, keyed by link ID.
func (ex *Execution) adopt(b *built) {
	if ex.mon != nil {
		ex.mon.AddLinks(b.lis)
	}
	if ex.dw != nil {
		ex.dw.Add(b.as, b.lis)
	}
	if ex.est == nil {
		return
	}
	kts := make([]qmodel.KernelTap, len(b.as))
	for i, a := range b.as {
		kts[i] = qmodel.KernelTap{Name: a.Name, ID: int32(a.ID), Runs: a.Service.Count}
	}
	lts := make([]qmodel.LinkTap, len(b.lis))
	for i, l := range b.lis {
		tel := l.Queue.Telemetry()
		lts[i] = qmodel.LinkTap{
			ID:    l.ID,
			Name:  l.Name,
			Src:   int32(l.SrcActor),
			Dst:   int32(l.DstActor),
			Flow:  tel.Flow,
			Block: tel.BlockNs,
			Occ:   tel.OccStats,
			Len:   l.Queue.Len,
			Cap:   l.Queue.Cap,
		}
	}
	ex.est.Add(kts, lts)
}

// drop detaches links that left the graph from the services adopt handed
// them to.
func (ex *Execution) drop(les []*linkEntry) {
	lis := make([]*core.LinkInfo, len(les))
	ids := make([]int, len(les))
	for i, le := range les {
		lis[i], ids[i] = le.li, le.li.ID
	}
	if ex.mon != nil {
		ex.mon.RemoveLinks(lis)
	}
	if ex.dw != nil {
		ex.dw.RemoveLinks(lis)
	}
	if ex.est != nil {
		ex.est.RemoveLinks(ids)
	}
}

// join starts what a build pass added: it announces a rewrite's additions
// on the trace bus (epoch 0 announces nothing), arms the staged consumer
// migrations, then hands the scheduler the new actors and links in one
// Spawn — it starts the actors, wires the links' wake hooks, and wakes a
// running consumer of a new link, which may be a merge that must adopt a
// staged slot.
func (ex *Execution) join(b *built, epoch int64) error {
	if ex.rec != nil && epoch > 0 {
		for _, ae := range b.actors {
			ex.rec.Emit(trace.Event{Actor: int32(ae.a.ID), Kind: trace.GraphAdd,
				At: time.Now().UnixNano(), Arg: epoch, Label: ae.a.Name})
		}
		for _, le := range b.links {
			ex.rec.Emit(trace.Event{Actor: -1, Kind: trace.GraphAdd,
				At: time.Now().UnixNano(), Arg: epoch, Label: le.li.Name})
		}
	}
	for i := range b.staged {
		if s := &b.staged[i]; s.pending != nil {
			s.l.DstPort.installPending(s.pending)
			// A merge asleep on its inputs adopts a staged slot once woken.
			if h, ok := s.l.Dst.(ringbuffer.WakeHook); ok && ex.ws == nil {
				h.OnWake(ringbuffer.WakeNotEmpty)
			}
		}
	}
	b.armed = true
	if err := ex.sched.Spawn(b.as, b.lis); err != nil {
		return fmt.Errorf("raft: starting %d kernels: %w", len(b.as), err)
	}
	b.spawned = true
	return nil
}

// rollback unwinds a rewrite's build after a failed join or seal: staged
// consumer migrations are disarmed, the new streams close (stopping the
// spawned kernels via the EOF cascade — an actor the scheduler never took
// has nothing to wait for), and the registry records the aborted entries
// as immediately departed.
func (ex *Execution) rollback(b *built, epoch int64) {
	for i := range b.staged {
		// A consumer that already adopted its staged binding (an adapter
		// slot adopts it at once) has rebound its port: wait until it is
		// done, so a later commit reads the port after that write.
		if s := &b.staged[i]; b.armed && s.pending != nil && !s.l.DstPort.pending.CompareAndSwap(s.pending, nil) {
			<-s.pending.applied
		}
	}
	for _, le := range b.links {
		le.li.Queue.Close()
	}
	deadline := time.Now().Add(drainTimeout)
	if b.spawned {
		for _, ae := range b.actors {
			for !ae.a.Finished.Load() && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	now := ex.reg.sinceStart()
	ex.reg.mu.Lock()
	for _, ae := range b.actors {
		ae.left, ae.leftNs = true, now
	}
	for _, le := range b.links {
		le.removed, le.leftNs = true, now
	}
	ex.reg.mu.Unlock()
	ex.drop(b.links)
	if ex.rec != nil {
		for _, ae := range b.actors {
			ex.rec.Emit(trace.Event{Actor: int32(ae.a.ID), Kind: trace.GraphRemove,
				At: time.Now().UnixNano(), Arg: epoch, Label: ae.a.Name + " (rollback)"})
		}
		for _, le := range b.links {
			ex.rec.Emit(trace.Event{Actor: -1, Kind: trace.GraphRemove,
				At: time.Now().UnixNano(), Arg: epoch, Label: le.li.Name + " (rollback)"})
		}
	}
}

// sealAndSplice is pass 2: pause every continuing producer whose output
// moves (downstream-first, so kernels blocked on full streams drain
// free), rebind their ports, seal the abandoned streams, and release.
func (ex *Execution) sealAndSplice(t *Tx, b *built, epoch int64) error {
	rmKernel := map[*KernelBase]bool{}
	for _, k := range t.rmKernels {
		rmKernel[k.kernelBase()] = true
	}

	// Producers to gate: continuing kernels with staged out-ports.
	rebinds := map[*KernelBase][]*stagedLink{}
	for i := range b.staged {
		if s := &b.staged[i]; s.srcDefer {
			kb := s.l.Src.kernelBase()
			rebinds[kb] = append(rebinds[kb], s)
		}
	}
	// Streams to seal: removed links whose producer continues (a removed
	// producer's streams close via its own teardown instead).
	sealQ := map[*KernelBase][]*core.LinkInfo{}
	var sealed int64
	for _, l := range t.rmLinks {
		if le := ex.reg.liveLink(l); le != nil && !rmKernel[l.Src.kernelBase()] {
			sealQ[l.Src.kernelBase()] = append(sealQ[l.Src.kernelBase()], le.li)
			sealed++
		}
	}
	producers := make([]*KernelBase, 0, len(rebinds)+len(sealQ))
	seen := map[*KernelBase]bool{}
	for kb := range rebinds {
		if !seen[kb] {
			seen[kb] = true
			producers = append(producers, kb)
		}
	}
	for kb := range sealQ {
		if !seen[kb] {
			seen[kb] = true
			producers = append(producers, kb)
		}
	}

	if ex.rec != nil {
		ex.rec.Emit(trace.Event{Actor: -1, Kind: trace.EpochSeal,
			At: time.Now().UnixNano(), Arg: epoch, Prev: sealed,
			Label: fmt.Sprintf("+%dk +%dl -%dk -%dl",
				len(t.addKernels), len(t.addLinks), len(t.rmKernels), len(t.rmLinks))})
	}

	// Downstream-first: a producer blocked pushing into a full stream
	// drains (its consumer is not paused yet) and reaches its gate; a
	// consumer-side producer paused early cannot starve an upstream one.
	depth := ex.topoDepth()
	sort.SliceStable(producers, func(i, j int) bool { return depth[producers[i]] > depth[producers[j]] })

	var paused []*core.Actor
	resumeAll := func() {
		for _, a := range paused {
			a.Gate.Resume()
		}
	}
	for _, kb := range producers {
		ae := ex.reg.liveKernel(kb)
		if ae == nil {
			resumeAll()
			return fmt.Errorf("raft: producer %q is not live", kb.Name())
		}
		a, finished := ae.a, ae.a.Finished.Load
		if h, ok := ae.k.(ringbuffer.WakeHook); ok {
			// Pause polls finished: an idle merge must be woken to reach its gate.
			finished = func() bool { h.OnWake(ringbuffer.WakeNotEmpty); return a.Finished.Load() }
		}
		if !a.Gate.Pause(sealTimeout, finished) {
			resumeAll()
			if a.Finished.Load() {
				return fmt.Errorf("raft: kernel %q finished before the seal", kb.Name())
			}
			return fmt.Errorf("raft: kernel %q did not reach a step boundary within %v (idle kernels cannot be spliced around; drive traffic or remove them)",
				kb.Name(), sealTimeout)
		}
		paused = append(paused, a)
	}

	// All affected producers are at step boundaries (or finished): splice.
	for _, kb := range producers {
		for _, s := range rebinds[kb] {
			s.bindPort(s.l.SrcPort, s.l)
		}
		for _, li := range sealQ[kb] {
			li.Queue.Close()
		}
	}
	resumeAll()

	// Retire removed sources; every other removed kernel stops at natural
	// EOF once the closure cascade reaches it.
	for _, k := range t.rmKernels {
		kb := k.kernelBase()
		hasLiveInput := false
		for _, p := range kb.InPorts() {
			if p.link != nil {
				hasLiveInput = true
				break
			}
		}
		if !hasLiveInput {
			if ae := ex.reg.liveKernel(kb); ae != nil {
				ae.a.Gate.Retire()
			}
		}
	}

	// Wait for armed consumer migrations so Commit returning means the new
	// structure carries the traffic. Best-effort: a consumer parked on a
	// different input migrates at its next touch of this port.
	deadline := time.NewTimer(drainTimeout)
	defer deadline.Stop()
	for i := range b.staged {
		s := &b.staged[i]
		if s.pending == nil {
			continue
		}
		select {
		case <-s.pending.applied:
		case <-deadline.C:
			return nil
		case <-ex.done:
			return nil
		}
	}
	return nil
}

// topoDepth computes each live kernel's depth (longest path from a
// source) over the live graph, for the downstream-first pause order.
func (ex *Execution) topoDepth() map[*KernelBase]int {
	reg := ex.reg
	reg.mu.Lock()
	type edge struct{ src, dst *KernelBase }
	var edges []edge
	nodes := map[*KernelBase]bool{}
	for _, ae := range reg.actors {
		if !ae.left {
			nodes[ae.k.kernelBase()] = true
		}
	}
	for _, le := range reg.links {
		if !le.removed {
			edges = append(edges, edge{le.l.Src.kernelBase(), le.l.Dst.kernelBase()})
		}
	}
	reg.mu.Unlock()

	depth := map[*KernelBase]int{}
	// Relaxation to a fixed point; the graph is verified acyclic, and
	// rewrite-scale node counts keep this trivial.
	for changed, rounds := true, 0; changed && rounds <= len(nodes)+1; rounds++ {
		changed = false
		for _, e := range edges {
			if !nodes[e.src] || !nodes[e.dst] {
				continue
			}
			if d := depth[e.src] + 1; d > depth[e.dst] {
				depth[e.dst] = d
				changed = true
			}
		}
	}
	return depth
}

// retireRemoved is pass 3: wait out the EOF cascade, then detach the
// removed structure from the monitor and the freeze scan and stamp the
// registry.
func (ex *Execution) retireRemoved(t *Tx, epoch int64) error {
	reg := ex.reg
	var waitErr error
	deadline := time.Now().Add(drainTimeout)
	removedActors := make([]*actorEntry, 0, len(t.rmKernels))
	for _, k := range t.rmKernels {
		ae := reg.liveKernel(k.kernelBase())
		if ae == nil {
			continue
		}
		removedActors = append(removedActors, ae)
		for !ae.a.Finished.Load() {
			if !time.Now().Before(deadline) {
				waitErr = fmt.Errorf("raft: removed kernel %q did not stop within %v", ae.a.Name, drainTimeout)
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	now := reg.sinceStart()
	removedLinks := make([]*linkEntry, 0, len(t.rmLinks))
	reg.mu.Lock()
	for _, ae := range removedActors {
		ae.left, ae.leftNs = true, now
	}
	for _, l := range t.rmLinks {
		for _, le := range reg.links {
			if le.l == l && !le.removed {
				le.removed, le.leftNs = true, now
				removedLinks = append(removedLinks, le)
				break
			}
		}
	}
	reg.mu.Unlock()

	// The sealed streams are drained (or their kernels gone); make sure no
	// blocked endpoint outlives the epoch, then stop watching them.
	for _, le := range removedLinks {
		le.li.Queue.Close()
	}
	ex.drop(removedLinks)
	if ex.rec != nil {
		for _, ae := range removedActors {
			ex.rec.Emit(trace.Event{Actor: int32(ae.a.ID), Kind: trace.GraphRemove,
				At: time.Now().UnixNano(), Arg: epoch, Label: ae.a.Name})
		}
		for _, le := range removedLinks {
			ex.rec.Emit(trace.Event{Actor: -1, Kind: trace.GraphRemove,
				At: time.Now().UnixNano(), Arg: epoch, Label: le.li.Name})
		}
	}
	return waitErr
}
