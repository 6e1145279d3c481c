package raft

import (
	"fmt"
	"math"
)

// KernelGroup is a set of synonymous kernels — alternative implementations
// of the same port signature — that the runtime swaps between to optimize
// the computation (§4.2: "RaftLib gives the user the ability to specify
// synonymous kernel groupings that the run-time can swap out to optimize
// the computation ... a version of the UNIX utility grep could be
// implemented with multiple search algorithms").
//
// The group itself is the kernel that joins the topology; all member
// implementations share its streams. Selection is measurement-driven: each
// member is exercised for a warm-up window, then the member with the best
// observed service rate runs, with periodic re-exploration to adapt to
// input drift. SetFixed pins a member and disables swapping (the paper's
// benchmarking mode: "this was disabled for this benchmark so we could
// more easily compare specific algorithms").
type KernelGroup struct {
	KernelBase
	members []Kernel
	labels  []string

	active   int
	fixed    bool
	warmRuns int   // per-member warm-up invocations
	window   int   // invocations between re-evaluations
	runs     int   // total invocations
	busy     []int // accumulated ns per member
	count    []int // invocations per member
	swaps    int
	// clock reads the time member invocations are measured in: nanotime,
	// or in a test a counter of the work done.
	clock func() int64
}

// NewKernelGroup builds a group from one or more member kernels. Every
// member must declare exactly the same ports (names, directions and
// element types) — the group's signature is taken from the first member.
func NewKernelGroup(members ...Kernel) (*KernelGroup, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("raft: kernel group needs at least one member")
	}
	g := &KernelGroup{
		members:  members,
		warmRuns: 32,
		window:   512,
		busy:     make([]int, len(members)),
		count:    make([]int, len(members)),
		clock:    nanotime,
	}
	first := members[0].kernelBase()
	for _, mk := range members {
		g.labels = append(g.labels, kernelName(mk))
	}
	// Validate signatures and mirror the first member's ports onto the
	// group.
	for _, p := range first.ins {
		g.addPort(p.cloneSpec(p.name, In))
	}
	for _, p := range first.outs {
		g.addPort(p.cloneSpec(p.name, Out))
	}
	for i, mk := range members[1:] {
		if err := sameSignature(first, mk.kernelBase()); err != nil {
			return nil, fmt.Errorf("raft: group member %d (%s): %w", i+1, kernelName(mk), err)
		}
	}
	g.SetName("group[" + g.labels[0] + "...]")
	return g, nil
}

func sameSignature(a, b *KernelBase) error {
	if len(a.ins) != len(b.ins) || len(a.outs) != len(b.outs) {
		return fmt.Errorf("port count differs")
	}
	for _, ap := range a.ins {
		bp := lookupPort(b.ins, b.inPorts, ap.name)
		if bp == nil || bp.elem != ap.elem {
			return fmt.Errorf("input port %q differs", ap.name)
		}
	}
	for _, ap := range a.outs {
		bp := lookupPort(b.outs, b.outPorts, ap.name)
		if bp == nil || bp.elem != ap.elem {
			return fmt.Errorf("output port %q differs", ap.name)
		}
	}
	return nil
}

// SetFixed pins the group to the named member and disables dynamic
// swapping. It returns an error if no member has that name.
func (g *KernelGroup) SetFixed(label string) error {
	for i, l := range g.labels {
		if l == label {
			g.active = i
			g.fixed = true
			return nil
		}
	}
	return fmt.Errorf("raft: group has no member %q (have %v)", label, g.labels)
}

// Members returns the member labels in order.
func (g *KernelGroup) Members() []string { return append([]string(nil), g.labels...) }

// Active returns the label of the member currently selected.
func (g *KernelGroup) Active() string { return g.labels[g.active] }

// Swaps returns how many times the group changed its active member.
func (g *KernelGroup) Swaps() int { return g.swaps }

// Init propagates the group's stream bindings into every member so they
// all read and write the same queues; the scheduler calls it before the
// first Run.
func (g *KernelGroup) Init() error {
	for _, mk := range g.members {
		mb := mk.kernelBase()
		for _, p := range g.ins {
			lookupPort(mb.ins, mb.inPorts, p.name).share(p)
		}
		for _, p := range g.outs {
			lookupPort(mb.outs, mb.outPorts, p.name).share(p)
		}
		if init, ok := mk.(Initializer); ok {
			if err := init.Init(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Finalize forwards finalization to every member.
func (g *KernelGroup) Finalize() {
	for _, mk := range g.members {
		if fin, ok := mk.(Finalizer); ok {
			fin.Finalize()
		}
	}
}

// Run delegates to the active member, accounting its service time and
// periodically reconsidering which member is fastest.
func (g *KernelGroup) Run() Status {
	idx := g.active
	if !g.fixed && len(g.members) > 1 {
		idx = g.choose()
	}
	start := g.clock()
	st := g.members[idx].Run()
	g.busy[idx] += int(g.clock() - start)
	g.count[idx]++
	g.runs++
	return st
}

// choose implements the measure-then-exploit policy.
func (g *KernelGroup) choose() int {
	n := len(g.members)
	warm := g.warmRuns * n
	if g.runs < warm {
		return g.runs % n // round-robin warm-up
	}
	// Re-evaluate at the end of warm-up and then every window invocations.
	if g.runs == warm || g.runs%g.window == 0 {
		best := g.bestMember()
		if best != g.active {
			g.active = best
			g.swaps++
		}
	}
	// Occasional exploration of non-active members keeps the measurements
	// fresh under drifting inputs.
	if g.runs%257 == 0 {
		return (g.active + g.runs/257) % n
	}
	return g.active
}

// bestMember returns the member with the lowest mean service time.
func (g *KernelGroup) bestMember() int {
	best, bestMean := g.active, math.Inf(1)
	for i := range g.members {
		if g.count[i] == 0 {
			return i // never measured: try it
		}
		mean := float64(g.busy[i]) / float64(g.count[i])
		if mean < bestMean {
			best, bestMean = i, mean
		}
	}
	return best
}
