package ringbuffer

import "time"

// Batch views: borrow/release access to the ring's backing array.
//
// PopN moves every element twice on its way to a serializer — once out of
// the ring into the caller's scratch slice, and once from the scratch into
// whatever owns the bytes (a wire frame, a replay buffer). A batch view
// removes the first copy entirely: AcquireView hands the consumer the
// buffered region of the ring's own storage (two contiguous segments when
// the region wraps, with the synchronized signals aligned), the consumer
// reads — or serializes, or transforms — in place, and ReleaseView(n)
// commits consumption of the first n elements without any element ever
// being moved. AcquireWriteView is the producer-side mirror: it reserves
// free slots of the backing array so decoded batches can be materialized
// directly into ring storage and published with ReleaseWriteView(n).
//
// A view pins the borrowed region. Best-effort eviction never touches a
// pinned head (incoming signal-free elements are shed instead, exactly like
// a signal-pinned head), and a Resize requested while a view is out is
// deferred and applied at release, so the backing array is never repacked
// under a borrower.
//
// Contract (single consumer / single producer, as for Pop/Push):
//   - At most one read view and one write view may be outstanding per ring;
//     a second Acquire while one is out panics (consumer logic error).
//   - A view with Len() == 0 took no pin and must NOT be released; a
//     non-empty view MUST be released exactly once.
//   - ReleaseView(n) consumes the first n elements (0 <= n <= Len());
//     the remainder stays buffered. ReleaseWriteView(n) publishes the
//     first n reserved slots; the rest return to the free region.
//   - The view's slices are invalid after release.

// View is a borrowed read window over a ring's backing array: up to two
// contiguous value segments (the second non-empty only when the buffered
// region wraps) with their aligned signal segments. Sig slices may be nil,
// meaning every element in that segment carries SigNone.
type View[T any] struct {
	Vals  []T
	Sigs  []Signal
	Vals2 []T
	Sigs2 []Signal
}

// Len returns the number of borrowed elements.
func (v View[T]) Len() int { return len(v.Vals) + len(v.Vals2) }

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

// At returns borrowed element i.
func (v View[T]) At(i int) T {
	if i < len(v.Vals) {
		return v.Vals[i]
	}
	return v.Vals2[i-len(v.Vals)]
}

// WriteView is a borrowed write window over a ring's free region: up to two
// contiguous value segments with their signal segments, pre-cleared to
// SigNone. Populate some prefix and publish it with ReleaseWriteView(n).
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
	n := 0
	if off < len(v.Vals) {
		n = copy(v.Vals[off:], vals)
		if sigs != nil {
			copy(v.Sigs[off:], sigs[:n])
		}
	}
	off2 := off + n - len(v.Vals)
	if n < len(vals) && off2 >= 0 && off2 < len(v.Vals2) {
		m := copy(v.Vals2[off2:], vals[n:])
		if sigs != nil {
			copy(v.Sigs2[off2:], sigs[n:n+m])
		}
		n += m
	}
	return n
}

// sliceViewLocked builds the read view of the first n buffered elements,
// aliasing storage in at most two segments.
func (r *Ring[T]) sliceViewLocked(n int) View[T] {
	first := min(n, len(r.vals)-r.head)
	v := View[T]{Vals: r.vals[r.head : r.head+first], Vals2: r.vals[:n-first]}
	if r.sigs != nil {
		v.Sigs = r.sigs[r.head : r.head+first]
		v.Sigs2 = r.sigs[:n-first]
	}
	return v
}

// AcquireView borrows up to max buffered elements, blocking until at least
// one is available. Once the ring is closed and drained it returns
// ErrClosed with an empty view (which must not be released).
func (r *Ring[T]) AcquireView(max int) (View[T], error) {
	if max <= 0 {
		return View[T]{}, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.viewOut {
		panic("ringbuffer: AcquireView with a read view already outstanding")
	}
	if err := r.waitForItemsLocked(1); err != nil {
		return View[T]{}, err
	}
	return r.acquireViewLocked(max), nil
}

// TryAcquireView is the non-blocking AcquireView: it borrows whatever is
// buffered, up to max elements, returning an empty view with a nil error
// when the ring is empty but open and (empty, ErrClosed) once it is closed
// and drained.
func (r *Ring[T]) TryAcquireView(max int) (View[T], error) {
	if max <= 0 {
		return View[T]{}, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.viewOut {
		panic("ringbuffer: TryAcquireView with a read view already outstanding")
	}
	if r.emptyLocked() {
		if r.closed {
			return View[T]{}, ErrClosed
		}
		return View[T]{}, nil
	}
	return r.acquireViewLocked(max), nil
}

func (r *Ring[T]) acquireViewLocked(max int) View[T] {
	n := min(r.n, max)
	r.viewOut, r.viewN = true, n
	r.viewSince = nowNanos()
	return r.sliceViewLocked(n)
}

// ReleaseView ends the outstanding read view, consuming its first n
// elements (they count as Pops, like DrainTo); the rest stay buffered. A
// Resize deferred by the borrow is applied now.
func (r *Ring[T]) ReleaseView(n int) {
	now := nowNanos() // read before the lock: the producer is not kept waiting for a clock
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.viewOut {
		panic("ringbuffer: ReleaseView without an outstanding view")
	}
	if n < 0 || n > r.viewN {
		panic("ringbuffer: ReleaseView past the borrowed window")
	}
	r.viewOut = false
	r.tel.Views.Inc()
	r.tel.ViewHoldNs.Add(uint64(now - r.viewSince))
	r.viewSince = 0
	if n > 0 {
		r.dropLocked(n)
	}
	r.applyDeferredLocked()
}

// AcquireWriteView reserves up to max free slots for in-place production,
// blocking until at least one is free (a full best-effort ring evicts
// stale elements first, unless a read view pins them). It returns ErrClosed
// with an empty view on a closed or read-only ring.
func (r *Ring[T]) AcquireWriteView(max int) (WriteView[T], error) {
	if max <= 0 {
		return WriteView[T]{}, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wviewOut {
		panic("ringbuffer: AcquireWriteView with a write view already outstanding")
	}
	if r.bestEffort && !r.closed && !r.readOnly && r.n == len(r.vals) {
		r.evictLocked(max)
	}
	if err := r.waitForSpaceLocked(1); err != nil {
		return WriteView[T]{}, err
	}
	return r.acquireWriteViewLocked(max), nil
}

// TryAcquireWriteView is the non-blocking AcquireWriteView: an empty view
// with a nil error means no slot is free right now (callers fall back to
// PushN, which also carries the best-effort shed policy).
func (r *Ring[T]) TryAcquireWriteView(max int) (WriteView[T], error) {
	if max <= 0 {
		return WriteView[T]{}, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wviewOut {
		panic("ringbuffer: TryAcquireWriteView with a write view already outstanding")
	}
	if r.closed || r.readOnly {
		return WriteView[T]{}, ErrClosed
	}
	if r.bestEffort && r.n == len(r.vals) {
		r.evictLocked(max)
	}
	if r.n == len(r.vals) {
		return WriteView[T]{}, nil
	}
	return r.acquireWriteViewLocked(max), nil
}

func (r *Ring[T]) acquireWriteViewLocked(max int) WriteView[T] {
	k := min(len(r.vals)-r.n, max)
	if r.sigs == nil {
		// Writers may set signals directly in the view; materialize the
		// lazily-allocated signal array up front.
		r.sigs = make([]Signal, len(r.vals))
	}
	idx := r.index(r.n)
	first := min(k, len(r.vals)-idx)
	wv := WriteView[T]{
		Vals: r.vals[idx : idx+first], Sigs: r.sigs[idx : idx+first],
		Vals2: r.vals[:k-first], Sigs2: r.sigs[:k-first],
	}
	clearSignals(wv.Sigs)
	clearSignals(wv.Sigs2)
	r.wviewOut, r.wviewN = true, k
	r.wviewSince = nowNanos()
	return wv
}

// ReleaseWriteView ends the outstanding write view, publishing its first n
// slots as buffered elements; the rest return to the free region. A Resize
// deferred by the borrow is applied now.
func (r *Ring[T]) ReleaseWriteView(n int) {
	now := nowNanos()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.wviewOut {
		panic("ringbuffer: ReleaseWriteView without an outstanding view")
	}
	if n < 0 || n > r.wviewN {
		panic("ringbuffer: ReleaseWriteView past the reserved window")
	}
	// Slots written but not published return to the free region; drop any
	// payload references the borrower left there.
	var zero T
	for j := n; j < r.wviewN; j++ {
		r.vals[r.index(r.n+j)] = zero
	}
	r.wviewOut = false
	r.tel.Views.Inc()
	r.tel.ViewHoldNs.Add(uint64(now - r.wviewSince))
	r.wviewSince = 0
	if n > 0 {
		wasEmpty := r.n == 0
		r.n += n
		r.tel.Pushes.Add(uint64(n))
		r.tel.recordOcc(r.n)
		r.notEmpty.Broadcast()
		r.wokeNotEmpty(wasEmpty)
	}
	r.applyDeferredLocked()
}

// applyDeferredLocked performs a resize that was requested while a view
// was out, once the last view is released. The target is clamped to the
// current length: the deferred request was accepted, so it must not start
// failing retroactively because the buffer filled meanwhile.
func (r *Ring[T]) applyDeferredLocked() {
	if r.deferredCap == 0 || r.viewOut || r.wviewOut {
		return
	}
	target := r.deferredCap
	r.deferredCap = 0
	if target < r.n {
		target = r.n
	}
	_ = r.resizeLocked(target)
}

// ViewHeldFor implements Queue. Only explicit borrows are stamped: a
// port window (window.go) is retired within a bounded time by construction,
// so it reports zero here and reads no clock — not even this one, when no
// explicit view is out.
func (r *Ring[T]) ViewHeldFor() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	since := r.viewSince
	if r.wviewSince != 0 && (since == 0 || r.wviewSince < since) {
		since = r.wviewSince
	}
	if since == 0 {
		return 0
	}
	return time.Duration(nowNanos() - since)
}

// ResizePending reports whether a Resize accepted while a view or a port
// window pinned the storage is still waiting for the release that applies
// it. The monitor skips the link meanwhile: the capacity has not changed
// yet, so the evidence that asked for the resize would ask again.
func (r *Ring[T]) ResizePending() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deferredCap != 0
}
