package raft

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
// into position i. The group pass (stageGroups) builds the adapters and
// all R replicas at epoch 0; the width is fixed (no Scaler), and rewrites
// are refused on the position-dependent links — the split's outputs and
// the merge's inputs.

// orderedSplit distributes single elements strictly round-robin across all
// outputs (no batching — batches would break the cyclic determinism the
// ordered merge relies on).
type orderedSplit struct {
	KernelBase
	adapterWait
	rr int
}

func newOrderedSplit(ops elemOps, width int) *orderedSplit {
	s := &orderedSplit{}
	s.spare = make([]Port, width)
	s.addPort("in", In, ops)
	for i := 0; i < width; i++ {
		s.addPort(slotName(i), Out, ops)
	}
	return s
}

// Run implements Kernel: move one element to the cyclically next output,
// or return Stall waiting on the input or that output. The group's input
// may be relinked by a rewrite; its positions — the outputs here and the
// merge's inputs — may not.
func (s *orderedSplit) Run() Status {
	in := s.In("in")
	j := s.rr % len(s.outs)
	n, err := in.ops.move(in.q, s.outs[j].q, 1)
	switch {
	case n > 0:
		s.rr++
	case err == nil:
		return s.stall(s.ins[:1], s.outs[j:j+1])
	case !in.migrateOnClosed(err):
		return Stop
	}
	return Proceed
}

// orderedMerge reads its inputs strictly round-robin, restoring the global
// order produced by orderedSplit + 1:1 kernels.
type orderedMerge struct {
	KernelBase
	adapterWait
	rr int
}

func newOrderedMerge(ops elemOps, width int) *orderedMerge {
	m := &orderedMerge{}
	m.spare = make([]Port, width)
	for i := 0; i < width; i++ {
		m.addPort(slotName(i), In, ops)
	}
	m.addPort("out", Out, ops)
	return m
}

// Run implements Kernel: move one element from the cyclically next input,
// or return Stall waiting on that input or the output.
func (m *orderedMerge) Run() Status {
	j := m.rr % len(m.ins)
	n, err := m.ins[j].ops.move(m.ins[j].q, m.Out("out").q, 1)
	switch {
	case n > 0:
		m.rr++
	case err == nil:
		return m.stall(m.ins[j:j+1], m.outs[:1])
	default:
		// The cyclically-next input is exhausted: with round-robin
		// distribution every input at or after this cyclic position holds
		// no more elements, so the whole group is drained.
		return Stop
	}
	return Proceed
}
