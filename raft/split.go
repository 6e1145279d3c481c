package raft

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"raftlib/internal/core"
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

// splitKernel distributes one input stream across up to width output
// streams, honoring a dynamically adjustable active width (the monitor's
// scale-up/down lever).
type splitKernel struct {
	KernelBase
	policy SplitPolicy
	active atomic.Int32
	rr     int
}

// newSplitFromSpec builds a split whose ports replicate the element type of
// the given port spec (used by the auto-replication rewrite, which cannot
// name T).
func newSplitFromSpec(spec *Port, width int, policy SplitPolicy, initialActive int) *splitKernel {
	s := &splitKernel{policy: policy}
	s.SetName("split")
	s.addPort(spec.cloneSpec("in", In))
	for i := 0; i < width; i++ {
		s.addPort(spec.cloneSpec(strconv.Itoa(i), Out))
	}
	if initialActive < 1 {
		initialActive = 1
	}
	if initialActive > width {
		initialActive = width
	}
	s.active.Store(int32(initialActive))
	return s
}

// NewSplit returns a standalone split kernel with one input port "in" and
// width output ports "0".."width-1", all carrying T. All outputs start
// active. Use it to build manual fan-out topologies; the runtime inserts
// equivalent adapters automatically for replicated kernels.
func NewSplit[T any](width int, policy SplitPolicy) Kernel {
	if width < 1 {
		panic("raft: NewSplit width must be >= 1")
	}
	spec := newPort[T]("in", In)
	return newSplitFromSpec(spec, width, policy, width)
}

// Run implements Kernel: move a batch from the input to the policy-chosen
// active output.
//
// Round-robin is the naive strict rotation: it commits to the next output
// and blocks if that replica's queue is full, even while other replicas
// starve — exactly the behavior that motivates the least-utilized
// alternative. Least-utilized inspects queue occupancy ("queue utilization
// used to direct data flow to less utilized servers", §4.1): it prefers
// the emptiest queue with free space, sizes the batch to the space
// available (the split is each replica queue's only producer, so observed
// free space cannot shrink underneath it), and blocks only when every
// active replica is full.
func (s *splitKernel) Run() Status {
	in := s.In("in")
	out, batch := s.pick(in.BatchHint(splitBatch))
	n, err := in.mover(in.typed, out.typed, min(batch, adapterFrame), true)
	if n > 0 {
		forwardMarks(in, out)
	}
	if err != nil {
		return Stop // input drained (or a downstream queue force-closed)
	}
	return Proceed
}

// pick selects the destination port among the active outputs and the batch
// size to move there; hint is the adaptive batcher's target for the inbound
// link (falling back to splitBatch).
func (s *splitKernel) pick(hint int) (*Port, int) {
	outs := s.OutPorts()
	active := int(s.active.Load())
	if active < 1 {
		active = 1
	}
	if active > len(outs) {
		active = len(outs)
	}
	switch s.policy {
	case LeastUtilized:
		best := outs[0]
		bestLen := best.Len()
		for _, p := range outs[1:active] {
			if l := p.Len(); l < bestLen {
				best, bestLen = p, l
			}
		}
		space := 1
		if q := best.Queue(); q != nil {
			if free := q.Cap() - bestLen; free > 1 {
				space = free
			}
		}
		if space > hint {
			space = hint
		}
		return best, space
	default:
		p := outs[s.rr%active]
		s.rr++
		return p, hint
	}
}

// mergeKernel funnels up to width input streams into one output stream,
// completing only when every input has closed. Arrival order across inputs
// is not preserved (the out-of-order contract).
type mergeKernel struct {
	KernelBase
	next int
	idle int
}

// newMergeFromSpec builds a merge whose ports replicate the element type of
// the given port spec.
func newMergeFromSpec(spec *Port, width int) *mergeKernel {
	m := &mergeKernel{}
	m.SetName("merge")
	for i := 0; i < width; i++ {
		m.addPort(spec.cloneSpec(strconv.Itoa(i), In))
	}
	m.addPort(spec.cloneSpec("out", Out))
	return m
}

// NewMerge returns a standalone merge kernel with width input ports
// "0".."width-1" and one output port "out", all carrying T.
func NewMerge[T any](width int) Kernel {
	if width < 1 {
		panic("raft: NewMerge width must be >= 1")
	}
	spec := newPort[T]("out", Out)
	return newMergeFromSpec(spec, width)
}

// Run implements Kernel: sweep the inputs round-robin, draining whatever is
// ready. Between empty sweeps the merge backs off so it does not burn a
// core while its producers compute.
func (m *mergeKernel) Run() Status {
	out := m.Out("out")
	ins := m.InPorts()
	hint := min(out.BatchHint(splitBatch), adapterFrame)
	moved := 0
	open := 0
	for i := range ins {
		in := ins[(m.next+i)%len(ins)]
		// One framed transfer per input per sweep, never waiting on an
		// empty input.
		n, err := in.mover(in.typed, out.typed, hint, false)
		if n > 0 {
			forwardMarks(in, out)
		}
		moved += n
		if err == nil {
			open++
		}
	}
	m.next++
	if moved > 0 {
		m.idle = 0
		return Proceed
	}
	if open == 0 || out.Closed() {
		return Stop
	}
	m.idle++
	if m.idle > 8 {
		d := time.Duration(m.idle) * time.Microsecond
		if d > 200*time.Microsecond {
			d = 200 * time.Microsecond
		}
		time.Sleep(d)
	}
	return Proceed
}

// groupScaler exposes a replicated kernel group's width to the runtime
// monitor (core.Scaler).
type groupScaler struct {
	name    string
	split   *splitKernel
	max     int
	inLink  *core.LinkInfo
	outLink *core.LinkInfo
	// workers are the replica kernels behind the split, in replica order;
	// workerIDs are their trace actor ids, resolved once actors exist.
	// The monitor's rate-driven width rule reads them (via WorkerActors)
	// to look up each replica's non-blocking service-rate estimate.
	workers   []Kernel
	workerIDs []int32
}

func (g *groupScaler) Name() string { return g.name }

func (g *groupScaler) Active() int { return int(g.split.active.Load()) }

func (g *groupScaler) Max() int { return g.max }

func (g *groupScaler) SetActive(n int) {
	if n < 1 {
		n = 1
	}
	if n > g.max {
		n = g.max
	}
	g.split.active.Store(int32(n))
}

func (g *groupScaler) InputLink() *core.LinkInfo { return g.inLink }

func (g *groupScaler) OutputLink() *core.LinkInfo { return g.outLink }

// resolveWorkers fills workerIDs from the map's kernel index (actor ids
// equal kernel indices, and each actor's trace id equals its actor id).
func (g *groupScaler) resolveWorkers(index map[*KernelBase]int) {
	g.workerIDs = g.workerIDs[:0]
	for _, w := range g.workers {
		if id, ok := index[w.kernelBase()]; ok {
			g.workerIDs = append(g.workerIDs, int32(id))
		}
	}
}

// WorkerActors implements the monitor's optional workerLister interface:
// the trace actor ids of the group's replicas, for per-replica µ̂ lookup.
func (g *groupScaler) WorkerActors() []int32 { return g.workerIDs }

var _ core.Scaler = (*groupScaler)(nil)

// replicable reports whether the rewrite can parallelize kernel k: it must
// opt in via Cloner, have exactly one input and one output, and its
// inbound link must be marked AsOutOfOrder or AsReorderable.
func replicable(k Kernel, inbound *Link) bool {
	if _, ok := k.(Cloner); !ok {
		return false
	}
	kb := k.kernelBase()
	if len(kb.ins) != 1 || len(kb.outs) != 1 {
		return false
	}
	return inbound != nil && (inbound.outOfOrder || inbound.reorderable)
}

// duplicateKernel clones k and validates the clone's port signature.
func duplicateKernel(k Kernel) (Kernel, error) {
	c, ok := k.(Cloner)
	if !ok {
		return nil, fmt.Errorf("raft: kernel %q is not cloneable", kernelName(k))
	}
	dup := c.Clone()
	if dup == nil {
		return nil, fmt.Errorf("raft: kernel %q Clone returned nil", kernelName(k))
	}
	ob, nb := k.kernelBase(), dup.kernelBase()
	if len(ob.ins) != len(nb.ins) || len(ob.outs) != len(nb.outs) {
		return nil, fmt.Errorf("raft: kernel %q Clone changed port counts", kernelName(k))
	}
	return dup, nil
}
