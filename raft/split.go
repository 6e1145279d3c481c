package raft

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"raftlib/internal/core"
	"raftlib/internal/ringbuffer"
)

// SplitPolicy selects how a split adapter distributes elements across the
// replicas of a parallelized kernel (§4.1: "the run-time attempts to
// select the best amongst round-robin and least-utilized strategies").
type SplitPolicy int

// Split policies.
const (
	// RoundRobin cycles elements across active replicas.
	RoundRobin SplitPolicy = iota
	// LeastUtilized sends each batch to the replica whose input queue is
	// currently shortest ("queue utilization used to direct data flow to
	// less utilized servers").
	LeastUtilized
)

// String returns the policy name.
func (p SplitPolicy) String() string {
	if p == LeastUtilized {
		return "least-utilized"
	}
	return "round-robin"
}

// splitBatch is how many elements a split/merge adapter moves per pick when
// the adaptive batcher has made no decision; a small batch amortizes the
// policy decision without harming balance.
const splitBatch = 16

// adapterFrame is the ceiling on a single framed adapter transfer,
// regardless of the batch hint.
const adapterFrame = 256

// splitKernel distributes one input stream over the linked, open streams
// of its output slots. The slots "0".."Max-1" are declared up front; only
// the linked ones carry a stream, so a replicated group's width is the
// number of replicas linked to its split, and a scale step is a rewrite
// commit that links or removes one.
type splitKernel struct {
	KernelBase
	adapterWait
	policy SplitPolicy
	rr     int
}

// newSplit builds a split whose ports carry the element type of ops (the
// group pass cannot name T).
func newSplit(ops elemOps, width int, policy SplitPolicy) *splitKernel {
	s := &splitKernel{policy: policy}
	s.SetName("split")
	s.spare = make([]Port, width)
	s.addPort("in", In, ops)
	for i := 0; i < width; i++ {
		s.addPort(slotName(i), Out, ops)
	}
	return s
}

// NewSplit returns a standalone split kernel with one input port "in" and
// width output slots "0".."width-1", all carrying T. At least one slot must
// be linked; elements go to the linked ones. Use it to build manual fan-out
// topologies; the runtime inserts equivalent adapters automatically for
// replicated kernels.
func NewSplit[T any](width int, policy SplitPolicy) Kernel {
	if width < 1 {
		panic("raft: NewSplit width must be >= 1")
	}
	return newSplit(ringOps[T]{}, width, policy)
}

// Run implements Kernel: move a batch from the input to the policy-chosen
// output, as much as fits; a move of nothing returns Stall (DESIGN §9).
//
// Round-robin is the naive strict rotation: it commits to the next output
// and waits while that replica's queue is full, even while other replicas
// starve — exactly the behavior that motivates the least-utilized
// alternative. Least-utilized inspects queue occupancy ("queue utilization
// used to direct data flow to less utilized servers", §4.1): it prefers
// the emptiest queue with free space, sizes the batch to the space
// available (the split is each replica queue's only producer, so observed
// free space cannot shrink underneath it), and waits only when every
// replica is full.
//
// A slot's binding changes only while the split is held at a step
// boundary (the rewrite's seal), so Run reads the slots without atomics.
// A slot whose stream closed — its replica was removed or stopped — is
// skipped; with none open the split stops.
func (s *splitKernel) Run() Status {
	in := s.In("in")
	j, batch := s.pick(in.BatchHint(splitBatch))
	if j < 0 {
		return Stop
	}
	out := s.outs[j]
	n, err := in.ops.move(in.q, out.q, min(batch, adapterFrame))
	if n > 0 {
		forwardMarks(in, out)
		s.rr = j + 1
	}
	switch {
	case err != nil && !out.Closed() && !in.migrateOnClosed(err):
		return Stop // input drained
	case n == 0 && err == nil:
		return s.stall(s.ins[:1], s.outs[j:j+1])
	}
	return Proceed
}

// slotOpen reports whether an output slot carries a live stream.
func slotOpen(p *Port) bool { return p.q != nil && !p.q.Closed() }

// pick selects the index of the destination slot and the batch size to
// move there; hint is the adaptive batcher's target for the inbound link
// (falling back to splitBatch). It returns -1 when no slot is open.
func (s *splitKernel) pick(hint int) (int, int) {
	outs := s.outs
	if s.policy == LeastUtilized {
		best, bestLen := -1, 0
		for j, p := range outs {
			if !slotOpen(p) {
				continue
			}
			if l := p.Len(); best < 0 || l < bestLen {
				best, bestLen = j, l
			}
		}
		if best < 0 {
			return -1, 0
		}
		space := 1
		if free := outs[best].q.Cap() - bestLen; free > 1 {
			space = free
		}
		return best, min(space, hint)
	}
	for i := range outs {
		if j := (s.rr + i) % len(outs); slotOpen(outs[j]) {
			return j, hint
		}
	}
	return -1, 0
}

// adapterWait is what a replica adapter keeps of its last Stall: the ends
// it could not serve, on which the scheduler waits (DESIGN §9). The four
// adapters embed it; no other kernel carries it.
type adapterWait struct {
	waitOn []*Port
}

// waits returns the adapter's wait record (see waiter).
func (w *adapterWait) waits() *adapterWait { return w }

// waiter is implemented by the replica adapters, which never wait inside
// Run: the build pass hands the record to the kernel's registry entry.
type waiter interface{ waits() *adapterWait }

// stall returns Stall after moves from in to out (slices of the adapter's
// own ports) moved nothing, recording the ends it could not serve: out,
// which was full, if an input holds elements, else in, which were empty.
func (w *adapterWait) stall(in, out []*Port) Status {
	w.waitOn = in
	for _, p := range in {
		if p.Len() > 0 {
			w.waitOn = out
		}
	}
	return Stall
}

// canServe reports whether an end an adapter's last Stall recorded can be
// served now (true with none), forgetting the record if so, and arms each
// blocked end. A merge input unlinked or closed and drained is done: it
// counts only with a binding a rewrite staged, or once all inputs are done.
func (w *adapterWait) canServe() bool {
	done := 0
	for _, p := range w.waitOn {
		if p.q == nil || len(w.waitOn) > 1 && p.q.Closed() && p.Len() == 0 {
			if done++; p.pending.Load() == nil {
				continue
			}
		} else if p.q.Blocked(p.dir == Out) {
			continue
		}
		done = len(w.waitOn)
		break
	}
	if done == len(w.waitOn) {
		w.waitOn = nil
	}
	return w.waitOn == nil
}

// mergeKernel funnels the streams of its linked input slots into one
// output stream, completing only when every linked input has closed.
// Arrival order across inputs is not preserved (the out-of-order
// contract). A slot linked by a rewrite arrives as a staged binding
// (Port.pending), which the merge adopts on its next sweep.
type mergeKernel struct {
	KernelBase
	adapterWait
	next int
	// wake ends the goroutine scheduler's wait on every input (await).
	wake chan struct{}
}

// newMerge builds a merge whose ports carry the element type of ops.
func newMerge(ops elemOps, width int) *mergeKernel {
	m := &mergeKernel{wake: make(chan struct{}, 1)}
	m.SetName("merge")
	m.spare = make([]Port, width)
	for i := 0; i < width; i++ {
		m.addPort(slotName(i), In, ops)
	}
	m.addPort("out", Out, ops)
	return m
}

// NewMerge returns a standalone merge kernel with width input slots
// "0".."width-1" and one output port "out", all carrying T. At least one
// slot must be linked.
func NewMerge[T any](width int) Kernel {
	if width < 1 {
		panic("raft: NewMerge width must be >= 1")
	}
	return newMerge(ringOps[T]{}, width)
}

// Run implements Kernel: sweep the linked inputs round-robin, moving
// whatever is ready and fits; a sweep that moves nothing returns Stall.
func (m *mergeKernel) Run() Status {
	out := m.Out("out")
	ins := m.ins
	hint := min(out.BatchHint(splitBatch), adapterFrame)
	moved := 0
	open := 0
	for i := range ins {
		in := ins[(m.next+i)%len(ins)]
		if in.q == nil && !in.migrateOnClosed(ringbuffer.ErrClosed) {
			continue // an unlinked slot
		}
		// One framed transfer per input per sweep.
		n, err := in.ops.move(in.q, out.q, hint)
		if n > 0 {
			forwardMarks(in, out)
		}
		moved += n
		if err == nil || in.migrateOnClosed(err) {
			open++
		}
	}
	m.next++
	switch {
	case moved > 0:
		return Proceed
	case open == 0 || out.Closed():
		return Stop
	}
	return m.stall(ins, m.outs)
}

// OnWake implements ringbuffer.WakeHook for await: a publish or a close
// on an input ends the wait, as does a staged slot (Execution.join).
func (m *mergeKernel) OnWake(ringbuffer.Wake) {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// await is the goroutine scheduler's wait on every input of a merge: each
// takes the merge as its wake hook and is armed; a publish or close ends it.
func (m *mergeKernel) await() {
	for _, p := range m.ins {
		if p.q != nil {
			p.q.(ringbuffer.WakeHooker).SetWakeHook(m)
		}
	}
	if !m.canServe() {
		<-m.wake
	}
}

// slotted is implemented by the fan adapters: their ports on the replica
// side (slotDir) are slots, of which only the linked ones carry a stream.
// Validation lets a slot stay unlinked but requires at least one linked.
type slotted interface {
	slotDir() Direction
}

func (s *splitKernel) slotDir() Direction { return Out }

func (m *mergeKernel) slotDir() Direction { return In }

// groupScaler is one replicated kernel at run time: the split and merge
// adapters around the replicas of one kernel. Its stageReplica is the one
// way a replica joins: epoch 0 stages the group with its initial replicas,
// and for an out-of-order group — the monitor's handle on the width
// (core.Scaler) — every width step is a rewrite commit of its own.
type groupScaler struct {
	ex   *Execution
	name string
	// proto is the user's kernel: the first replica, and the one every
	// other replica is cloned from.
	proto        Kernel
	split, merge Kernel
	max          int
	// in and out are the kernel's links in the map, which the group
	// replaces; replica links take their capacities.
	in, out *Link

	// made counts the replicas ever staged, naming the next one. Staging
	// happens at epoch 0 and inside one step at a time.
	made     int
	stepping atomic.Bool
	// inLink is the engine record of the split's input, resolved by the
	// monitor goroutine (the only caller of InputLink) and again once a
	// rewrite has sealed it.
	inLink *core.LinkInfo
}

func (g *groupScaler) Name() string { return g.name }

func (g *groupScaler) Max() int { return g.max }

// Active is the number of live replicas: the live links out of the split.
func (g *groupScaler) Active() int { return len(g.ex.reg.linksFrom(g.split)) }

func (g *groupScaler) InputLink() *core.LinkInfo {
	if g.inLink == nil || g.inLink.Queue.Closed() {
		if ins := g.ex.reg.linksWhere(func(l *Link) bool { return l.Dst == g.split }); len(ins) > 0 {
			g.inLink = ins[len(ins)-1].li
		}
	}
	return g.inLink
}

// WorkerActors implements the monitor's optional workerLister interface:
// the trace actor ids of the live replicas, for per-replica µ̂ lookup.
func (g *groupScaler) WorkerActors() []int32 {
	var ids []int32
	for _, le := range g.ex.reg.linksFrom(g.split) {
		ids = append(ids, int32(le.li.DstActor))
	}
	return ids
}

func (g *groupScaler) Stepping() bool { return g.stepping.Load() }

// Step runs one width step on its own goroutine; Execution.Wait waits for
// it before assembling the report.
func (g *groupScaler) Step(delta int, committed func(from, to int)) {
	if !g.stepping.CompareAndSwap(false, true) {
		return
	}
	g.ex.steps.Add(1)
	go func() {
		defer g.ex.steps.Done()
		defer g.stepping.Store(false)
		from := g.Active()
		if g.step(delta) == nil {
			committed(from, from+delta)
		}
	}()
}

// step commits one width step as one rewrite transaction: one replica more
// (delta > 0) or fewer.
func (g *groupScaler) step(delta int) error {
	tx := g.ex.rw.Begin()
	stage := g.stageReplica
	if delta < 0 {
		stage = g.stageRemoval
	}
	if err := stage(tx); err != nil {
		return err
	}
	return tx.Commit()
}

// stageReplica stages one more replica into t — the group's own kernel
// first, a clone after that — linked split→replica→merge through the first
// free slot on each side.
func (g *groupScaler) stageReplica(t *Tx) error {
	from, to := t.freeSlot(g.split.kernelBase().outs), t.freeSlot(g.merge.kernelBase().ins)
	if from == nil || to == nil {
		return fmt.Errorf("raft: group %q has no free slot (at most %d replicas)", g.name, g.max)
	}
	k := g.proto
	if g.made > 0 {
		if k = g.proto.(Cloner).Clone(); k == nil || len(k.kernelBase().ins) != 1 || len(k.kernelBase().outs) != 1 {
			return fmt.Errorf("raft: kernel %q: Clone must return a kernel with the same ports", g.name)
		}
		k.kernelBase().SetName(g.name + "[" + strconv.Itoa(g.made) + "]")
	}
	g.made++
	if _, err := t.Link(g.split, k, From(from.name), Cap(g.in.capacity), MaxCap(g.in.maxCap)); err != nil {
		return err
	}
	_, err := t.Link(k, g.merge, To(to.name), Cap(g.out.capacity), MaxCap(g.out.maxCap))
	return err
}

// stageRemoval stages the removal of the newest replica that feeds the
// merge directly: the kernel and its two links. The existing seal and
// retire passes drain it.
func (g *groupScaler) stageRemoval(t *Tx) error {
	reg := g.ex.reg
	ins := reg.linksFrom(g.split)
	if len(ins) < 2 {
		return fmt.Errorf("raft: group %q is down to one replica", g.name)
	}
	for i := len(ins) - 1; i >= 0; i-- {
		r := ins[i].l.Dst
		if outs := reg.linksFrom(r); len(outs) == 1 && outs[0].l.Dst == g.merge {
			t.RemoveLink(ins[i].l)
			t.RemoveLink(outs[0].l)
			return t.RemoveKernel(r)
		}
	}
	return fmt.Errorf("raft: group %q has no replica linked straight to its merge", g.name)
}

var _ core.Scaler = (*groupScaler)(nil)

// stageGroups stages every replicable kernel of the epoch-0 transaction t
// as a group: the kernel's two links give way to a split, the initial
// replicas and a merge — one replica under WithAutoScale, the ceiling
// otherwise and for an AsReorderable group, which stays at that width. It
// returns the out-of-order groups, the monitor's scalers.
func (ex *Execution) stageGroups(t *Tx) ([]*groupScaler, error) {
	cfg := ex.cfg
	t.addKernels, t.addLinks = slices.Clip(t.addKernels), slices.Clip(t.addLinks)
	replaced := map[*Link]bool{}
	var scalers []*groupScaler
	for _, k := range t.addKernels {
		// A replicable kernel opts in via Cloner, has one input and one
		// output, and its inbound link is AsOutOfOrder or AsReorderable.
		kb := k.kernelBase()
		if _, ok := k.(Cloner); !ok || len(kb.ins) != 1 || len(kb.outs) != 1 {
			continue
		}
		in, out := t.claimed[kb.ins[0]], t.claimed[kb.outs[0]]
		if in == nil || out == nil || !in.outOfOrder && !in.reorderable {
			continue
		}
		g := &groupScaler{ex: ex, name: kb.Name(), proto: k, max: cfg.maxReplicas, in: in, out: out}
		initial, kind := g.max, ""
		if in.reorderable {
			g.split = newOrderedSplit(kb.ins[0].ops, g.max)
			g.merge = newOrderedMerge(kb.outs[0].ops, g.max)
			kind = "ordered-"
		} else {
			g.split = newSplit(kb.ins[0].ops, g.max, cfg.splitPolicy)
			g.merge = newMerge(kb.outs[0].ops, g.max)
			if cfg.autoScale {
				initial = 1
			}
			scalers = append(scalers, g)
		}
		g.split.kernelBase().SetName(kind + "split(" + g.name + ")")
		g.merge.kernelBase().SetName(kind + "merge(" + g.name + ")")
		for _, l := range [2]*Link{in, out} {
			replaced[l] = true
			delete(t.claimed, l.SrcPort)
			delete(t.claimed, l.DstPort)
		}
		if _, err := t.Link(in.Src, g.split, From(in.SrcPort.name), To("in"),
			Cap(in.capacity), MaxCap(in.maxCap)); err != nil {
			return nil, err
		}
		for i := 0; i < initial; i++ {
			if err := g.stageReplica(t); err != nil {
				return nil, err
			}
		}
		if _, err := t.Link(g.merge, out.Dst, From("out"), To(out.DstPort.name),
			Cap(out.capacity), MaxCap(out.maxCap)); err != nil {
			return nil, err
		}
	}
	t.addLinks = slices.DeleteFunc(t.addLinks, func(l *Link) bool { return replaced[l] })
	return scalers, nil
}
