package kernels

import (
	"raftlib/raft"
)

// Vectorized adapters: map and filter over borrowed batches. Where Filter
// and Transform move one element per Run (a pop, a closure call, a push),
// these kernels borrow a whole contiguous region of the input queue's
// storage with raft.PopView, run the user function over the slice in
// place, and forward the result with one bulk push per segment — the
// per-element stream overhead is paid once per batch. Both are cloneable,
// so the runtime's auto-replication (split/merge rewrite) applies to them
// exactly as to their scalar counterparts.

// vectorBatch is the default borrow size when the adaptive batcher has
// made no decision for the link.
const vectorBatch = 64

// MapBatch applies a slice-at-a-time function to every element in place —
// the vectorized Transform for T→T mappings.
type MapBatch[T any] struct {
	raft.KernelBase
	fn    func(vals []T)
	batch int
}

// NewMapBatch returns a kernel applying fn to each borrowed segment of
// port "in" in place and forwarding it to port "out" with signals
// preserved. fn must be pure (elementwise, no cross-call state): MapBatch
// is cloneable.
func NewMapBatch[T any](fn func(vals []T)) *MapBatch[T] {
	k := &MapBatch[T]{fn: fn, batch: vectorBatch}
	k.SetName("map_batch")
	raft.AddInput[T](k, "in")
	raft.AddOutput[T](k, "out")
	return k
}

// SetBatch bounds the borrow size (the adaptive batcher's per-link hint,
// when present, overrides n). Returns the kernel for chaining.
func (m *MapBatch[T]) SetBatch(n int) *MapBatch[T] {
	if n < 1 {
		n = 1
	}
	m.batch = n
	return m
}

// runBorrowed is the Run of both vectorized kernels: borrow up to batch
// elements of port "in" (the adaptive batcher's hint, when present,
// overrides batch), hand each contiguous segment to emit, release the
// borrow. It stops at end of stream or when emit reports a failed push.
func runBorrowed[T any](k *raft.KernelBase, batch int, emit func(out *raft.Port, vals []T, sigs []raft.Signal) bool) raft.Status {
	in, out := k.In("in"), k.Out("out")
	v, err := raft.PopView[T](in, max(in.BatchHint(batch), 1))
	if v.Len() == 0 {
		_ = err // blocking PopView yields elements or ErrClosed
		return raft.Stop
	}
	ok := emit(out, v.Vals, v.Sigs) && emit(out, v.Vals2, v.Sigs2)
	raft.ReleaseView[T](in, v.Len())
	if !ok {
		return raft.Stop
	}
	return raft.Proceed
}

// Run implements raft.Kernel.
func (m *MapBatch[T]) Run() raft.Status { return runBorrowed(&m.KernelBase, m.batch, m.emit) }

// emit transforms one segment in place and forwards it.
func (m *MapBatch[T]) emit(out *raft.Port, vals []T, sigs []raft.Signal) bool {
	if len(vals) == 0 {
		return true
	}
	m.fn(vals)
	return raft.PushNSig(out, vals, sigs) == nil
}

// Clone implements raft.Cloner.
func (m *MapBatch[T]) Clone() raft.Kernel { return NewMapBatch(m.fn).SetBatch(m.batch) }

// FilterBatch passes through only the elements satisfying a predicate,
// compacting each borrowed segment in place — the vectorized Filter.
type FilterBatch[T any] struct {
	raft.KernelBase
	pred  func(T) bool
	batch int
	// pending holds the synchronized signal of a dropped element until the
	// next kept element with a free (SigNone) slot carries it downstream —
	// unlike the scalar Filter, a filtered-out EOF is not silently lost as
	// long as any element follows. A later dropped signal overwrites an
	// undelivered earlier one.
	pending raft.Signal
	// sigs is scratch for segments borrowed without a signal array.
	sigs []raft.Signal
}

// NewFilterBatch returns a kernel forwarding elements of port "in" to port
// "out" when pred returns true, processing borrowed batches in place. pred
// must be pure: FilterBatch is cloneable (each replica gets its own
// pending-signal state).
func NewFilterBatch[T any](pred func(T) bool) *FilterBatch[T] {
	k := &FilterBatch[T]{pred: pred, batch: vectorBatch}
	k.SetName("filter_batch")
	raft.AddInput[T](k, "in")
	raft.AddOutput[T](k, "out")
	return k
}

// SetBatch bounds the borrow size (the adaptive batcher's per-link hint,
// when present, overrides n). Returns the kernel for chaining.
func (f *FilterBatch[T]) SetBatch(n int) *FilterBatch[T] {
	if n < 1 {
		n = 1
	}
	f.batch = n
	return f
}

// Run implements raft.Kernel.
func (f *FilterBatch[T]) Run() raft.Status { return runBorrowed(&f.KernelBase, f.batch, f.emit) }

// emit compacts one segment in place (values and signals) and forwards the
// kept prefix.
func (f *FilterBatch[T]) emit(out *raft.Port, vals []T, sigs []raft.Signal) bool {
	if len(vals) == 0 {
		return true
	}
	// A borrowed segment may come with no signal array (all SigNone); the
	// compaction needs one only if a pending signal must be attached.
	if sigs == nil {
		if cap(f.sigs) < len(vals) {
			f.sigs = make([]raft.Signal, len(vals))
		}
		sigs = f.sigs[:len(vals)]
		for i := range sigs {
			sigs[i] = raft.SigNone
		}
	}
	k := 0
	for i, v := range vals {
		sig := sigs[i]
		if f.pred(v) {
			if sig == raft.SigNone && f.pending != raft.SigNone {
				sig = f.pending
				f.pending = raft.SigNone
			}
			vals[k], sigs[k] = v, sig
			k++
		} else if sig != raft.SigNone {
			f.pending = sig
		}
	}
	if k == 0 {
		return true
	}
	return raft.PushNSig(out, vals[:k], sigs[:k]) == nil
}

// Clone implements raft.Cloner.
func (f *FilterBatch[T]) Clone() raft.Kernel { return NewFilterBatch(f.pred).SetBatch(f.batch) }
