package raft

import (
	"strconv"
)

// This file implements the paper's third ordering mode (§4.1): "Some
// applications require data to be processed in order, others are okay with
// data that is processed out of order, yet others can process the data out
// of order and re-order at some later time. RaftLib accommodates all of
// the above paradigms."
//
//   - in order:            don't replicate (default).
//   - out of order:        AsOutOfOrder  -> split/merge, any policy.
//   - out of order + re-order: AsReorderable -> deterministic round-robin
//     split and a matching round-robin merge, which restores the global
//     input order with no sequence tags at all, provided the replicated
//     kernel is 1:1 (exactly one output element per input element).
//
// The determinism argument: the split hands element i to replica i mod R;
// a 1:1 kernel emits exactly one element per input in order; the merge
// reads replicas cyclically starting at 0, so it reassembles i mod R back
// into position i.

// orderedSplit distributes single elements strictly round-robin across all
// outputs (no batching — batches would break the cyclic determinism the
// ordered merge relies on).
type orderedSplit struct {
	KernelBase
	rr int
}

func newOrderedSplitFromSpec(spec *Port, width int) *orderedSplit {
	s := &orderedSplit{}
	s.SetName("ordered-split")
	s.addPort(spec.cloneSpec("in", In))
	for i := 0; i < width; i++ {
		s.addPort(spec.cloneSpec(strconv.Itoa(i), Out))
	}
	return s
}

// Run implements Kernel.
func (s *orderedSplit) Run() Status {
	outs := s.OutPorts()
	in := s.In("in")
	out := outs[s.rr%len(outs)]
	if _, err := in.moveBlocking(in.typed, out.typed, 1); err != nil {
		return Stop
	}
	s.rr++
	return Proceed
}

// orderedMerge reads its inputs strictly round-robin, restoring the global
// order produced by orderedSplit + 1:1 kernels.
type orderedMerge struct {
	KernelBase
	rr int
}

func newOrderedMergeFromSpec(spec *Port, width int) *orderedMerge {
	m := &orderedMerge{}
	m.SetName("ordered-merge")
	for i := 0; i < width; i++ {
		m.addPort(spec.cloneSpec(strconv.Itoa(i), In))
	}
	m.addPort(spec.cloneSpec("out", Out))
	return m
}

// Run implements Kernel.
func (m *orderedMerge) Run() Status {
	ins := m.InPorts()
	in := ins[m.rr%len(ins)]
	out := m.Out("out")
	if _, err := in.moveBlocking(in.typed, out.typed, 1); err != nil {
		// The cyclically-next input is exhausted: with round-robin
		// distribution every input at or after this cyclic position holds
		// no more elements, so the whole group is drained.
		return Stop
	}
	m.rr++
	return Proceed
}

// rewriteOrdered rewrites u -> k -> v into
//
//	u -> ordered-split -> {k, clones...} -> ordered-merge -> v
//
// preserving global element order. The group has a fixed width (the
// monitor cannot change the replica count without breaking the cyclic
// determinism), so no Scaler is registered.
func (m *Map) rewriteOrdered(k Kernel, inbound, outbound *Link, width int) error {
	kb := k.kernelBase()
	inPort := kb.ins[0]
	outPort := kb.outs[0]
	split := newOrderedSplitFromSpec(inPort, width)
	split.SetName("ordered-split(" + kb.Name() + ")")
	merge := newOrderedMergeFromSpec(outPort, width)
	merge.SetName("ordered-merge(" + kb.Name() + ")")

	clones := make([]Kernel, width)
	clones[0] = k
	for i := 1; i < width; i++ {
		dup, err := duplicateKernel(k)
		if err != nil {
			return err
		}
		dup.kernelBase().SetName(kb.Name() + "[" + strconv.Itoa(i) + "]")
		clones[i] = dup
	}
	// The cyclic split/merge discipline is position-dependent; rewriting
	// any part of the group would break determinism.
	split.kernelBase().rigid = true
	merge.kernelBase().rigid = true
	for _, c := range clones {
		c.kernelBase().rigid = true
	}

	m.removeLink(inbound)
	m.removeLink(outbound)
	if _, err := m.Link(inbound.Src, split,
		From(inbound.SrcPort.name), To("in"),
		Cap(inbound.capacity), MaxCap(inbound.maxCap)); err != nil {
		return err
	}
	for i, c := range clones {
		if _, err := m.Link(split, c,
			From(strconv.Itoa(i)), To(c.kernelBase().ins[0].name),
			Cap(inbound.capacity), MaxCap(inbound.maxCap)); err != nil {
			return err
		}
		if _, err := m.Link(c, merge,
			From(c.kernelBase().outs[0].name), To(strconv.Itoa(i)),
			Cap(outbound.capacity), MaxCap(outbound.maxCap)); err != nil {
			return err
		}
	}
	_, err := m.Link(merge, outbound.Dst,
		From("out"), To(outbound.DstPort.name),
		Cap(outbound.capacity), MaxCap(outbound.maxCap))
	return err
}
