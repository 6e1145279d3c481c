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
	rr int
}

func newOrderedSplit(ops elemOps, width int) *orderedSplit {
	s := &orderedSplit{}
	s.addPort("in", In, ops)
	for i := 0; i < width; i++ {
		s.addPort(slotName(i), Out, ops)
	}
	return s
}

// Run implements Kernel. The group's input may be relinked by a rewrite;
// its positions — the outputs here and the merge's inputs — may not.
func (s *orderedSplit) Run() Status {
	in := s.In("in")
	out := s.outs[s.rr%len(s.outs)]
	if _, err := in.ops.move(in.q, out.q, 1, true); err != nil {
		if in.migrateOnClosed(err) {
			return Proceed
		}
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

func newOrderedMerge(ops elemOps, width int) *orderedMerge {
	m := &orderedMerge{}
	for i := 0; i < width; i++ {
		m.addPort(slotName(i), In, ops)
	}
	m.addPort("out", Out, ops)
	return m
}

// Run implements Kernel.
func (m *orderedMerge) Run() Status {
	in := m.ins[m.rr%len(m.ins)]
	out := m.Out("out")
	if _, err := in.ops.move(in.q, out.q, 1, true); err != nil {
		// The cyclically-next input is exhausted: with round-robin
		// distribution every input at or after this cyclic position holds
		// no more elements, so the whole group is drained.
		return Stop
	}
	m.rr++
	return Proceed
}
