package raft

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/graph"
	"raftlib/internal/trace"
)

// This file implements runtime graph rewriting: hot add/remove of kernels
// and links in a running execution, under a graph-epoch protocol.
//
// A rewrite transaction commits in three passes:
//
//  1. Build (reversible). New streams are allocated and new kernels are
//     bound, spawned and registered with the monitor, the scheduler and
//     the deadlock watch. New kernels block harmlessly on their empty
//     inputs; nothing existing is touched. Continuing consumers whose
//     input stream is being replaced get a staged replacement binding
//     (Port.pending) — armed, but inert until the old stream closes.
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
//     their streams leave the monitor and the freeze scan, and the
//     registry stamps departure times for the report.
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

// registry is the live kernel/link book of one execution. The static
// slices built by ExeAsync stop being the whole story once a rewrite
// commits, so the abort pathway, the report build and rewrite validation
// all read this instead.
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
	k        Kernel
	a        *core.Actor
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

func newRegistry(m *Map, actors []*core.Actor, links []*core.LinkInfo, scalers []*groupScaler) *registry {
	r := &registry{}
	for i, a := range actors {
		r.actors = append(r.actors, &actorEntry{k: m.kernels[i], a: a})
	}
	for i, li := range links {
		r.links = append(r.links, &linkEntry{l: m.links[i], li: li})
	}
	return r
}

func (r *registry) sinceStart() int64 {
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

func (r *registry) actorList() []*core.Actor {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*core.Actor, len(r.actors))
	for i, ae := range r.actors {
		out[i] = ae.a
	}
	return out
}

func (r *registry) linkInfoList() []*core.LinkInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*core.LinkInfo, len(r.links))
	for i, le := range r.links {
		out[i] = le.li
	}
	return out
}

// stampReport writes the lifecycle columns onto a report whose Kernels
// and Links rows were built from actorList/linkInfoList (same order).
func (r *registry) stampReport(rep *Report) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range rep.Kernels {
		if i < len(r.actors) {
			rep.Kernels[i].JoinedAt = time.Duration(r.actors[i].joinedNs)
			rep.Kernels[i].LeftAt = time.Duration(r.actors[i].leftNs)
		}
	}
	for i := range rep.Links {
		if i < len(r.links) {
			rep.Links[i].JoinedAt = time.Duration(r.links[i].joinedNs)
			rep.Links[i].LeftAt = time.Duration(r.links[i].leftNs)
		}
	}
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
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, le := range r.links {
		if le.l == l && !le.removed {
			return le
		}
	}
	return nil
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
// mirror Map.Link; AllowConvert is not supported on rewrites.
func (t *Tx) Link(src, dst Kernel, opts ...LinkOption) (*Link, error) {
	if t.done {
		return nil, errRewriteDone
	}
	var spec linkSpec
	for _, o := range opts {
		o(&spec)
	}
	if spec.convert {
		return nil, errors.New("raft: AllowConvert is not supported on rewrite links")
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
	sp, err := t.pickPort(src.kernelBase(), Out, spec.from)
	if err != nil {
		return nil, err
	}
	dp, err := t.pickPort(dst.kernelBase(), In, spec.to)
	if err != nil {
		return nil, err
	}
	if sp.elem != dp.elem {
		return nil, fmt.Errorf("raft: %w linking %s -> %s", ErrTypeMismatch, sp, dp)
	}
	l := &Link{
		Src: src, Dst: dst, SrcPort: sp, DstPort: dp,
		capacity: spec.capacity, maxCap: spec.maxCap,
		outOfOrder: spec.outOfOrder, reorderable: spec.reorderable,
		lowLatency: spec.lowLatency, lockFree: spec.lockFree,
		bestEffort: spec.bestEffort,
	}
	t.claimed[sp] = l
	t.claimed[dp] = l
	t.addLinks = append(t.addLinks, l)
	return l, nil
}

var errRewriteDone = errors.New("raft: rewrite transaction already committed")

// adopt tracks a kernel the transaction introduces (no-op for live ones).
func (t *Tx) adopt(k Kernel) error {
	kb := k.kernelBase()
	if kb.rigid {
		return fmt.Errorf("raft: kernel %q belongs to a replicated group and cannot be rewired", kb.Name())
	}
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

// pickPort resolves a port for a staged link: free means unbound, freed
// by a removal staged in this transaction, and not yet claimed by another
// staged link.
func (t *Tx) pickPort(kb *KernelBase, dir Direction, name string) (*Port, error) {
	list, ports := kb.outs, kb.outPorts
	if dir == In {
		list, ports = kb.ins, kb.inPorts
	}
	free := func(p *Port) bool {
		if _, taken := t.claimed[p]; taken {
			return false
		}
		el := effectiveLink(p)
		if el == nil {
			return true
		}
		for _, rm := range t.rmLinks {
			if rm == el {
				return true
			}
		}
		return false
	}
	if name != "" {
		p, ok := ports[name]
		if !ok {
			return nil, fmt.Errorf("raft: kernel %q has no %s port %q: %w", kb.name, dir, name, ErrPortNotFound)
		}
		if !free(p) {
			return nil, fmt.Errorf("raft: port %s is already linked (remove its link in this transaction first): %w", p, ErrPortInUse)
		}
		return p, nil
	}
	var candidates []*Port
	for _, p := range list {
		if free(p) {
			candidates = append(candidates, p)
		}
	}
	switch len(candidates) {
	case 1:
		return candidates[0], nil
	case 0:
		return nil, fmt.Errorf("raft: kernel %q has no free %s port: %w", kb.name, dir, ErrPortNotFound)
	default:
		return nil, fmt.Errorf("raft: kernel %q has %d free %s ports; select one with %s",
			kb.name, len(candidates), dir, fromOrTo(dir))
	}
}

// stagedLink is one allocated-but-not-yet-live stream.
type stagedLink struct {
	stream
	l *Link
	// srcDefer/dstDefer mark endpoints owned by continuing kernels, which
	// are rebound at the seal (producer, under gate) or by the kernel
	// itself (consumer, via Port.pending) instead of immediately.
	srcDefer bool
	dstDefer bool
	pending  *pendingRebind
}

// built is the reversible state of pass 1.
type built struct {
	staged    []*stagedLink
	newActors []*actorEntry
	newLinks  []*linkEntry
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
	if err := t.validate(); err != nil {
		return err
	}

	ex.reg.mu.Lock()
	ex.reg.epoch++
	epoch := ex.reg.epoch
	ex.reg.mu.Unlock()

	b, err := ex.buildAdditions(t, epoch)
	if err != nil {
		ex.rollbackAdditions(t, b, epoch)
		return err
	}
	if err := ex.sealAndSplice(t, b, epoch); err != nil {
		ex.rollbackAdditions(t, b, epoch)
		return err
	}
	return ex.retireRemoved(t, epoch)
}

// validate checks the transaction against the live graph and verifies the
// prospective graph structurally before anything is touched.
func (t *Tx) validate() error {
	ex := t.rw.ex
	reg := ex.reg

	rmLink := map[*Link]bool{}
	for _, l := range t.rmLinks {
		le := reg.liveLink(l)
		if le == nil {
			return fmt.Errorf("raft: RemoveLink: %s.%s -> %s.%s is not a live link of this execution",
				l.Src.kernelBase().Name(), l.SrcPort.name, l.Dst.kernelBase().Name(), l.DstPort.name)
		}
		if l.Src.kernelBase().rigid || l.Dst.kernelBase().rigid {
			return fmt.Errorf("raft: RemoveLink: %s touches a replicated group", le.li.Name)
		}
		rmLink[l] = true
	}
	rmKernel := map[*KernelBase]bool{}
	for _, k := range t.rmKernels {
		kb := k.kernelBase()
		if kb.rigid {
			return fmt.Errorf("raft: RemoveKernel: %q belongs to a replicated group", kb.Name())
		}
		if reg.liveKernel(kb) == nil {
			return fmt.Errorf("raft: RemoveKernel: %q is not a live kernel of this execution", kb.Name())
		}
		rmKernel[kb] = true
	}

	// Name uniqueness: the supervisor's checkpoint store and the report
	// are keyed by kernel name.
	reg.mu.Lock()
	names := map[string]bool{}
	for _, ae := range reg.actors {
		if !ae.left {
			names[ae.a.Name] = true
		}
	}
	liveKernels := make([]*actorEntry, 0, len(reg.actors))
	for _, ae := range reg.actors {
		if !ae.left {
			liveKernels = append(liveKernels, ae)
		}
	}
	liveLinks := make([]*linkEntry, 0, len(reg.links))
	for _, le := range reg.links {
		if !le.removed {
			liveLinks = append(liveLinks, le)
		}
	}
	reg.mu.Unlock()
	for _, k := range t.addKernels {
		name := k.kernelBase().name
		if name != "" && names[name] {
			return fmt.Errorf("raft: added kernel name %q is already in use", name)
		}
	}

	// Every live link touching a removed kernel must be removed with it.
	for _, le := range liveLinks {
		if rmLink[le.l] {
			continue
		}
		if rmKernel[le.l.Src.kernelBase()] || rmKernel[le.l.Dst.kernelBase()] {
			return fmt.Errorf("raft: removed kernel still has live link %s (remove it in the same transaction)", le.li.Name)
		}
	}

	// Prospective graph: live structure minus removals plus additions, with
	// every port of every surviving kernel bound — the same invariant
	// Map.Exe enforces, checked transactionally here.
	g := &graph.Graph{}
	ids := map[*KernelBase]int{}
	check := func(kb *KernelBase) error {
		for _, p := range append(kb.InPorts(), kb.OutPorts()...) {
			el := effectiveLink(p)
			bound := el != nil && !rmLink[el]
			if _, claimed := t.claimed[p]; claimed || bound {
				continue
			}
			return fmt.Errorf("raft: rewrite leaves port %s unlinked", p)
		}
		return nil
	}
	for _, ae := range liveKernels {
		kb := ae.k.kernelBase()
		if rmKernel[kb] {
			continue
		}
		if err := check(kb); err != nil {
			return err
		}
		ids[kb] = g.AddNode(kb.Name(), kb.Weight())
	}
	for _, k := range t.addKernels {
		kb := k.kernelBase()
		if err := check(kb); err != nil {
			return err
		}
		ids[kb] = g.AddNode(kb.Name(), kb.Weight())
	}
	edges := make([]*Link, 0, len(liveLinks)+len(t.addLinks))
	for _, le := range liveLinks {
		if !rmLink[le.l] {
			edges = append(edges, le.l)
		}
	}
	edges = append(edges, t.addLinks...)
	for _, l := range edges {
		src, ok1 := ids[l.Src.kernelBase()]
		dst, ok2 := ids[l.Dst.kernelBase()]
		if !ok1 || !ok2 {
			return fmt.Errorf("raft: staged link %s.%s -> %s.%s references a kernel outside the rewritten graph",
				l.Src.kernelBase().Name(), l.SrcPort.name, l.Dst.kernelBase().Name(), l.DstPort.name)
		}
		g.AddEdge(src, dst, l.SrcPort.name, l.DstPort.name, l.SrcPort.elem.String(), 1)
	}
	return g.Verify()
}

// buildAdditions is pass 1: allocate the staged streams, spawn the new
// kernels (they block on their empty inputs), and register everything
// with the monitor, the scheduler and the freeze scan.
func (ex *Execution) buildAdditions(t *Tx, epoch int64) (*built, error) {
	b := &built{}
	cfg := ex.cfg
	reg := ex.reg
	rmKernel := map[*KernelBase]bool{}
	for _, k := range t.rmKernels {
		rmKernel[k.kernelBase()] = true
	}
	added := map[*KernelBase]bool{}
	for _, k := range t.addKernels {
		added[k.kernelBase()] = true
	}

	// Adopt the new kernels (names first, so staged link labels and marker
	// stamps read properly).
	reg.mu.Lock()
	nextLinkID := len(reg.links)
	nextActorID := len(reg.actors)
	reg.mu.Unlock()
	for i, k := range t.addKernels {
		kb := k.kernelBase()
		kb.m = ex.m
		if kb.name == "" {
			kb.name = fmt.Sprintf("%s#%d", kernelName(k), nextActorID+i)
		}
	}

	// Allocate every staged stream (the initial allocate's newStream).
	for _, l := range t.addLinks {
		src, dst := l.Src.kernelBase(), l.Dst.kernelBase()
		s := &stagedLink{
			stream: newStream(cfg, l, nextLinkID), l: l,
			srcDefer: !added[src],
			dstDefer: !added[dst],
		}
		// Marker plumbing is only written on kernels added by this
		// transaction: continuing endpoints already carry it from their
		// original allocation, and they are live — writing here would race
		// their stamping hot path.
		if cfg.markers != nil {
			rigMarkers(cfg.markers, l, added[src], added[dst])
		}
		nextLinkID++
		b.staged = append(b.staged, s)
	}

	// Bind new-kernel endpoints now; stage continuing ones.
	for _, s := range b.staged {
		if !s.srcDefer {
			s.bindPort(s.l.SrcPort, s.l)
		}
		if !s.dstDefer {
			s.bindPort(s.l.DstPort, s.l)
		} else {
			s.pending = &pendingRebind{
				q: s.q, typed: s.typed, async: s.async,
				link: s.l, batch: s.bc, lane: s.lane,
				applied: make(chan struct{}),
			}
		}
	}

	// Actors for the new kernels: IDs continue the registry sequence, and
	// join stamps mark the epoch boundary in the report.
	now := reg.sinceStart()
	reg.mu.Lock()
	for _, k := range t.addKernels {
		id := len(reg.actors)
		a := buildActor(k, id, 0, ex.rec, ex.stride)
		wireActorResilience(cfg, k, a)
		ae := &actorEntry{k: k, a: a, joinedNs: now}
		reg.actors = append(reg.actors, ae)
		b.newActors = append(b.newActors, ae)
	}
	for _, s := range b.staged {
		s.li.SrcActor = int(s.l.Src.kernelBase().actor)
		s.li.DstActor = int(s.l.Dst.kernelBase().actor)
		le := &linkEntry{l: s.l, li: s.li, joinedNs: now}
		reg.links = append(reg.links, le)
		b.newLinks = append(b.newLinks, le)
	}
	reg.mu.Unlock()

	// Runtime services adopt the additions.
	for _, s := range b.staged {
		if ex.mon != nil {
			ex.mon.AddLink(s.li)
		}
		if ex.dw != nil {
			ex.dw.AddLink(s.li)
		}
		if ex.ws != nil {
			ex.ws.TakeLink(s.li)
		}
	}
	if ex.rec != nil {
		for _, ae := range b.newActors {
			ex.rec.Emit(trace.Event{Actor: int32(ae.a.ID), Kind: trace.GraphAdd,
				At: time.Now().UnixNano(), Arg: epoch, Label: ae.a.Name})
		}
		for _, le := range b.newLinks {
			ex.rec.Emit(trace.Event{Actor: -1, Kind: trace.GraphAdd,
				At: time.Now().UnixNano(), Arg: epoch, Label: le.li.Name})
		}
	}
	for _, ae := range b.newActors {
		if ex.dw != nil {
			ex.dw.AddActor(ae.a)
		}
		if ex.spawn == nil {
			return b, errors.New("raft: scheduler cannot adopt spawned kernels")
		}
		if err := ex.spawn.Spawn(ae.a); err != nil {
			return b, fmt.Errorf("raft: spawning %q: %w", ae.a.Name, err)
		}
	}

	// Arm consumer migrations last: everything the swap publishes is in
	// place before any ErrClosed wake-up can observe the staging.
	for _, s := range b.staged {
		if s.pending != nil {
			s.l.DstPort.installPending(s.pending)
		}
	}
	return b, nil
}

// rollbackAdditions unwinds pass 1 after a failed build or seal: staged
// consumer migrations are disarmed, the staged streams close (stopping
// any spawned kernels via the EOF cascade), and the registry records the
// aborted entries as immediately departed.
func (ex *Execution) rollbackAdditions(t *Tx, b *built, epoch int64) {
	if b == nil {
		return
	}
	for _, s := range b.staged {
		if s.pending != nil {
			s.l.DstPort.pending.Store(nil)
		}
	}
	for _, s := range b.staged {
		s.q.Close()
	}
	deadline := time.Now().Add(drainTimeout)
	for _, ae := range b.newActors {
		for !ae.a.Finished.Load() && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
	}
	now := ex.reg.sinceStart()
	ex.reg.mu.Lock()
	for _, ae := range b.newActors {
		ae.left, ae.leftNs = true, now
	}
	for _, le := range b.newLinks {
		le.removed, le.leftNs = true, now
	}
	ex.reg.mu.Unlock()
	for _, le := range b.newLinks {
		if ex.mon != nil {
			ex.mon.RemoveLink(le.li)
		}
		if ex.dw != nil {
			ex.dw.RemoveLink(le.li)
		}
	}
	if ex.rec != nil {
		for _, ae := range b.newActors {
			ex.rec.Emit(trace.Event{Actor: int32(ae.a.ID), Kind: trace.GraphRemove,
				At: time.Now().UnixNano(), Arg: epoch, Label: ae.a.Name + " (rollback)"})
		}
		for _, le := range b.newLinks {
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
	for _, s := range b.staged {
		if s.srcDefer {
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
		a := ae.a
		if !a.Gate.Pause(sealTimeout, a.Finished.Load) {
			resumeAll()
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
	for _, s := range b.staged {
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
			select {
			case <-ex.done:
			default:
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

	for _, le := range removedLinks {
		// The sealed stream is drained (or its kernel gone); make sure no
		// blocked endpoint outlives the epoch, then stop scanning it.
		le.li.Queue.Close()
		if ex.mon != nil {
			ex.mon.RemoveLink(le.li)
		}
		if ex.dw != nil {
			ex.dw.RemoveLink(le.li)
		}
	}
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
