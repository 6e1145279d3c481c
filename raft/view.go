package raft

import "raftlib/internal/ringbuffer"

// Zero-copy batch views at the port layer.
//
// PopN hands a kernel a copy of each batch; PopView hands it the stream
// queue's own backing array. A kernel that serializes, scans or transforms
// elements can do so directly on ring storage (two contiguous segments when
// the buffered region wraps, with the synchronized signals aligned) and
// then commit consumption with ReleaseView — no element is ever staged
// through a kernel-owned slice. AcquireWriteView is the producer-side
// mirror: decoded or generated batches are materialized straight into the
// queue's free region and published with ReleaseWriteView.
//
// Every stream is a ring, and every ring supports views — the slice-backed
// one a QueueProvider hands out included. The borrow
// discipline (one view per side, release exactly once, slices invalid after
// release) is documented on the ringbuffer package.

// View is a borrowed read window over stream storage: up to two contiguous
// value segments with their aligned signal segments. A nil signal segment
// means every element in it carries SigNone.
type View[T any] struct {
	Vals  []T
	Sigs  []Signal
	Vals2 []T
	Sigs2 []Signal
}

// Len returns the number of borrowed elements.
func (v View[T]) Len() int { return len(v.Vals) + len(v.Vals2) }

// At returns borrowed element i.
func (v View[T]) At(i int) T {
	if i < len(v.Vals) {
		return v.Vals[i]
	}
	return v.Vals2[i-len(v.Vals)]
}

// SigAt returns the signal aligned with borrowed element i.
func (v View[T]) SigAt(i int) Signal {
	if i < len(v.Vals) {
		if v.Sigs == nil {
			return SigNone
		}
		return v.Sigs[i]
	}
	if v.Sigs2 == nil {
		return SigNone
	}
	return v.Sigs2[i-len(v.Vals)]
}

// WriteView is a borrowed write window over a stream's free region, signals
// pre-cleared to SigNone. Populate a prefix and publish it with
// ReleaseWriteView.
type WriteView[T any] struct {
	Vals  []T
	Sigs  []Signal
	Vals2 []T
	Sigs2 []Signal
}

// Len returns the number of reserved slots.
func (v WriteView[T]) Len() int { return len(v.Vals) + len(v.Vals2) }

// SetAt stores (val, sig) into reserved slot i.
func (v WriteView[T]) SetAt(i int, val T, sig Signal) {
	if i < len(v.Vals) {
		v.Vals[i] = val
		v.Sigs[i] = sig
		return
	}
	v.Vals2[i-len(v.Vals)] = val
	v.Sigs2[i-len(v.Vals)] = sig
}

// CopyIn bulk-copies vals (and sigs, which may be nil = all SigNone) into
// the reserved slots starting at offset off, returning the number copied.
func (v WriteView[T]) CopyIn(off int, vals []T, sigs []Signal) int {
	return ringbuffer.WriteView[T](v).CopyIn(off, vals, sigs)
}

// PopView borrows up to max buffered elements of an input port in place,
// blocking until at least one is available; once the stream is closed and
// drained it returns ErrClosed with an empty view. A non-empty view MUST be
// released exactly once with ReleaseView; its slices alias queue storage
// and are invalid after release.
func PopView[T any](p *Port, max int) (View[T], error) {
	for {
		v, err := retired[T](p).AcquireView(max)
		if len(v.Vals) > 0 {
			p.markPop()
		}
		if err == nil || len(v.Vals) > 0 || !p.migrateOnClosed(err) {
			return View[T](v), err
		}
	}
}

// TryPopView is the non-blocking PopView: an empty view with a nil error
// when the stream is empty but open, (empty, ErrClosed) once it is closed
// and drained. An empty view must not be released.
func TryPopView[T any](p *Port, max int) (View[T], error) {
	for {
		v, err := retired[T](p).TryAcquireView(max)
		if len(v.Vals) > 0 {
			p.markPop()
		}
		if err == nil || len(v.Vals) > 0 || !p.migrateOnClosed(err) {
			return View[T](v), err
		}
	}
}

// ReleaseView ends the port's outstanding read view, consuming its first n
// elements; the remainder stays buffered for the next PopView.
func ReleaseView[T any](p *Port, n int) {
	retired[T](p).ReleaseView(n)
}

// AcquireWriteView reserves up to max free slots of an output port for
// in-place production, blocking until at least one is free. Populate a
// prefix and publish it with ReleaseWriteView; a non-empty view MUST be
// released exactly once.
func AcquireWriteView[T any](p *Port, max int) (WriteView[T], error) {
	v, err := retired[T](p).AcquireWriteView(max)
	return WriteView[T](v), err
}

// TryAcquireWriteView is the non-blocking AcquireWriteView: an empty view
// with a nil error means no slot is free right now (callers fall back to
// PushN, which also carries the best-effort shed policy).
func TryAcquireWriteView[T any](p *Port, max int) (WriteView[T], error) {
	v, err := retired[T](p).TryAcquireWriteView(max)
	return WriteView[T](v), err
}

// ReleaseWriteView ends the port's outstanding write view, publishing its
// first n slots downstream; the rest return to the free region.
func ReleaseWriteView[T any](p *Port, n int) {
	retired[T](p).ReleaseWriteView(n)
	if n > 0 {
		p.markPush(n)
	}
}

// moveView transfers up to max elements src→dst by borrowing the source's
// storage: one AcquireView, one PushN per segment (the only copy on the
// hop), one release. A destination failure mid-hop leaves the undelivered
// elements in the source queue.
func moveView[T any](src, dst ringbuffer.Queue, max int, block bool) (n int, err error) {
	sv, db := src.(*ringbuffer.Ring[T]), dst.(*ringbuffer.Ring[T])
	if max < 1 {
		max = 1
	}
	var v ringbuffer.View[T]
	if block {
		v, err = sv.AcquireView(max)
	} else {
		v, err = sv.TryAcquireView(max)
	}
	if v.Len() == 0 {
		return 0, err
	}
	if perr := db.PushN(v.Vals, v.Sigs); perr != nil {
		sv.ReleaseView(0)
		return 0, perr
	}
	if len(v.Vals2) > 0 {
		if perr := db.PushN(v.Vals2, v.Sigs2); perr != nil {
			sv.ReleaseView(len(v.Vals)) // the first segment was delivered
			return len(v.Vals), perr
		}
	}
	n = v.Len()
	sv.ReleaseView(n)
	return n, err
}

// NewBatchLambda builds a 1-in/1-out kernel that processes the stream one
// borrowed batch at a time: fn receives each contiguous segment of the
// input queue's own storage (vals with aligned, always non-nil sigs),
// transforms it in place, and returns how many leading elements to emit
// downstream — len(vals) for a map, fewer for a filter that compacted the
// segment. The emitted prefix is pushed with its (possibly rewritten)
// signals; a filter must carry any dropped element's non-SigNone signal
// onto an emitted element itself, or the signal is lost. batch bounds the
// borrow size (the adaptive batcher's per-link hint, when present,
// overrides it).
//
// State captured by fn is subject to the lambda-replication caveat; use
// NewLambdaCloneable with a maker that calls NewBatchLambda for a
// replicable kernel.
func NewBatchLambda[T any](batch int, fn func(vals []T, sigs []Signal) int) *LambdaKernel {
	if batch < 1 {
		batch = 1
	}
	var scratchS []Signal
	l := &LambdaKernel{}
	l.SetName("batch_lambdak")
	AddInput[T](l, "0")
	AddOutput[T](l, "0")
	// sigsFor hands fn a real signal slice even when the view's segment is
	// nil (all SigNone): in-place compaction needs somewhere to move
	// signals, and PushNSig needs alignment either way.
	sigsFor := func(sigs []Signal, n int) []Signal {
		if sigs != nil {
			return sigs[:n]
		}
		if cap(scratchS) < n {
			scratchS = make([]Signal, n)
		}
		s := scratchS[:n]
		for i := range s {
			s[i] = SigNone
		}
		return s
	}
	l.fn = func(k *LambdaKernel) Status {
		in, out := k.In("0"), k.Out("0")
		max := in.BatchHint(batch)
		if max < 1 {
			max = 1
		}
		v, err := PopView[T](in, max)
		if v.Len() == 0 {
			_ = err // blocking PopView returns elements or ErrClosed
			return Stop
		}
		// emit runs fn over one segment and pushes the kept prefix.
		emit := func(vals []T, sigs []Signal) bool {
			if len(vals) == 0 {
				return true
			}
			ss := sigsFor(sigs, len(vals))
			keep := fn(vals, ss)
			return keep == 0 || PushNSig(out, vals[:keep], ss[:keep]) == nil
		}
		ok := emit(v.Vals, v.Sigs) && emit(v.Vals2, v.Sigs2)
		ReleaseView[T](in, v.Len())
		if !ok {
			return Stop
		}
		return Proceed
	}
	return l
}
