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
// one kernels.ForEach provides included. The borrow
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

// moveView moves up to max elements src→dst, up to the source's wrap point,
// without waiting: it borrows the source's storage and copies what fits at
// the destination. Nothing moves when the source is empty or the
// destination full, and the try that failed has armed that end.
func moveView[T any](src, dst ringbuffer.Queue, max int) (n int, err error) {
	sv, db := src.(*ringbuffer.Ring[T]), dst.(*ringbuffer.Ring[T])
	v, err := sv.TryAcquireView(max)
	if v.Len() == 0 {
		return 0, err
	}
	n, err = db.TryPushN(v.Vals, v.Sigs)
	sv.ReleaseView(n)
	return n, err
}
