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
// a signal-pinned head). A Resize never moves an element: one requested
// while a write view is out waits for its release, and a read view goes on
// reading the store the resize sealed.
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

// AcquireView borrows up to max buffered elements, blocking until at least
// one is available. Once the ring is closed and drained it returns
// ErrClosed with an empty view (which must not be released).
func (r *Ring[T]) AcquireView(max int) (View[T], error) { return r.borrow(max, waitBlock) }

// TryAcquireView is the non-blocking AcquireView: it borrows whatever is
// buffered, up to max elements, returning an empty view with a nil error
// when the ring is empty but open and (empty, ErrClosed) once it is closed
// and drained.
func (r *Ring[T]) TryAcquireView(max int) (View[T], error) { return r.borrow(max, waitTry) }

func (r *Ring[T]) borrow(max int, mode waitMode) (View[T], error) {
	if max <= 0 {
		return View[T]{}, nil
	}
	if r.viewN != 0 {
		panic("ringbuffer: AcquireView with a read view already outstanding")
	}
	v, err := r.view(max, mode)
	if v.Len() > 0 {
		r.viewSince.Store(nowNanos())
	}
	return v, err
}

// view takes up to want elements at the head, in at most two segments of
// one store. A best-effort ring is locked so its producer cannot evict
// what is being borrowed; viewN pins the head against eviction after that.
func (r *Ring[T]) view(want int, mode waitMode) (View[T], error) {
	locked := r.lockBE()
	if locked {
		defer r.mu.Unlock()
	}
	st, h, n, err := r.take(want, mode, locked)
	if n == 0 {
		return View[T]{}, err
	}
	i := st.at(h)
	first := min(n, st.size-i)
	v := View[T]{Vals: st.vals[i : i+first], Vals2: st.vals[:n-first]}
	if st.sigs != nil {
		v.Sigs, v.Sigs2 = st.sigs[i:i+first], st.sigs[:n-first]
	}
	r.viewN = n
	return v, nil
}

// ReleaseView ends the outstanding read view, consuming its first n
// elements (they count as Pops, like DrainTo); the rest stay buffered.
func (r *Ring[T]) ReleaseView(n int) {
	if since := r.viewSince.Swap(0); since != 0 {
		r.tel.Views.Inc()
		r.tel.ViewHoldNs.Add(uint64(nowNanos() - since))
	}
	r.unview(n)
}

func (r *Ring[T]) unview(n int) {
	if r.viewN == 0 {
		panic("ringbuffer: ReleaseView without an outstanding view")
	}
	if n < 0 || n > r.viewN {
		panic("ringbuffer: ReleaseView past the borrowed window")
	}
	locked := r.lockBE()
	if locked {
		defer r.mu.Unlock()
	}
	r.viewN = 0
	if n > 0 {
		r.drop(r.cst, r.head.Load(), n, locked)
	}
}

// PopN removes up to len(dst) elements in bulk, blocking until at least one
// is available: a loop over read views, each copied out with at most two
// copies and released with one store of head. When sigs is non-nil its
// first n entries receive the elements' synchronized signals (it must hold
// at least len(dst) entries). Once the ring is closed and drained PopN
// returns (0, ErrClosed).
func (r *Ring[T]) PopN(dst []T, sigs []Signal) (int, error) { return r.popN(dst, sigs, waitBlock) }

// DrainTo is the non-blocking PopN: it removes whatever is buffered, up to
// len(dst) elements, returning 0 with a nil error when the ring is empty but
// open and (0, ErrClosed) once it is closed and drained.
func (r *Ring[T]) DrainTo(dst []T, sigs []Signal) (int, error) { return r.popN(dst, sigs, waitTry) }

func (r *Ring[T]) popN(dst []T, sigs []Signal, mode waitMode) (int, error) {
	n := 0
	for n < len(dst) {
		v, err := r.view(len(dst)-n, mode)
		k := v.Len()
		if k == 0 {
			if n > 0 {
				err = nil
			}
			return n, err
		}
		copy(dst[n:], v.Vals)
		copy(dst[n+len(v.Vals):], v.Vals2)
		if sigs != nil {
			if v.Sigs == nil {
				clear(sigs[n : n+k])
			} else {
				copy(sigs[n:], v.Sigs)
				copy(sigs[n+len(v.Sigs):], v.Sigs2)
			}
		}
		r.unview(k)
		n += k
		mode = waitNone
	}
	return n, nil
}

// AcquireWriteView reserves up to max free slots for in-place production,
// blocking until at least one is free (a full best-effort ring evicts
// stale elements first, unless a read view pins them). It returns ErrClosed
// with an empty view on a closed or read-only ring.
func (r *Ring[T]) AcquireWriteView(max int) (WriteView[T], error) {
	wv, _, err := r.reserve(max, true, false)
	if wv.Len() > 0 {
		r.wviewSince.Store(nowNanos())
	}
	return wv, err
}

// TryAcquireWriteView is the non-blocking AcquireWriteView: an empty view
// with a nil error means no slot is free right now (callers fall back to
// PushN, which also carries the best-effort shed policy).
func (r *Ring[T]) TryAcquireWriteView(max int) (WriteView[T], error) {
	wv, _, err := r.reserve(max, false, false)
	if wv.Len() > 0 {
		r.wviewSince.Store(nowNanos())
	}
	return wv, err
}

// reserve takes up to want free slots at the tail, in at most two segments
// of the live store, with their signals cleared. The producer stays busy
// until publish. shed reports a full best-effort ring whose head is pinned,
// when the caller may shed (shedOK).
func (r *Ring[T]) reserve(want int, block, shedOK bool) (wv WriteView[T], shed bool, err error) {
	if want <= 0 {
		return wv, false, nil
	}
	if r.wviewN != 0 {
		panic("ringbuffer: AcquireWriteView with a write view already outstanding")
	}
	st, t, f, shed, err := r.room(r.enter(), want, block, shedOK)
	if f == 0 {
		r.exit()
		return wv, shed, err
	}
	k := min(want, f)
	i := st.at(t)
	first := min(k, st.size-i)
	wv = WriteView[T]{
		Vals: st.vals[i : i+first], Sigs: st.sigs[i : i+first],
		Vals2: st.vals[:k-first], Sigs2: st.sigs[:k-first],
	}
	clear(wv.Sigs)
	clear(wv.Sigs2)
	r.wviewN = k
	return wv, false, nil
}

// ReleaseWriteView ends the outstanding write view, publishing its first n
// slots as buffered elements; the rest return to the free region.
func (r *Ring[T]) ReleaseWriteView(n int) {
	if since := r.wviewSince.Swap(0); since != 0 {
		r.tel.Views.Inc()
		r.tel.ViewHoldNs.Add(uint64(nowNanos() - since))
	}
	r.publish(n)
}

// publish makes the first n reserved slots buffered elements with one
// store of tail, and ends the producer's busy section.
func (r *Ring[T]) publish(n int) {
	k := r.wviewN
	if k == 0 {
		panic("ringbuffer: ReleaseWriteView without an outstanding view")
	}
	if n < 0 || n > k {
		panic("ringbuffer: ReleaseWriteView past the reserved window")
	}
	r.wviewN = 0
	t := r.tail.Load()
	if r.zero && n < k {
		// Drop any payload references the borrower left in slots that go
		// back to the free region.
		st := r.live.Load()
		i := st.at(t + uint64(n))
		first := min(k-n, st.size-i)
		clear(st.vals[i : i+first])
		clear(st.vals[:k-n-first])
	}
	if n > 0 {
		r.tail.Store(t + uint64(n))
		r.account(n)
	}
	r.exit()
}

// PushN appends all of vs with their parallel signals in bulk: a loop over
// write views, each filled with at most two copies and published with one
// store of tail. sigs may be nil (every element carries SigNone) or must
// have len(vs) entries. PushN blocks as needed and returns ErrClosed on a
// closed ring. On a full best-effort ring whose head is pinned it sheds the
// incoming signal-free prefix; a signal-carrying element waits for room.
func (r *Ring[T]) PushN(vs []T, sigs []Signal) error {
	for len(vs) > 0 {
		n, err := r.pushSome(vs, sigs, true)
		if err != nil {
			return err
		}
		vs = vs[n:]
		if sigs != nil {
			sigs = sigs[n:]
		}
	}
	return nil
}

// TryPushN is the non-blocking PushN: it takes the prefix of vs that fits
// now; a full ring that is not best-effort takes none and arms its producer.
func (r *Ring[T]) TryPushN(vs []T, sigs []Signal) (int, error) { return r.pushSome(vs, sigs, false) }

// pushSome takes the prefix of vs that one write view holds, or that a
// pinned best-effort ring sheds, waiting for room first if block is set.
func (r *Ring[T]) pushSome(vs []T, sigs []Signal, block bool) (int, error) {
	if sigs != nil && len(sigs) != len(vs) {
		panic("ringbuffer: PushN signal slice length mismatch")
	}
	wv, shed, err := r.reserve(len(vs), block, len(sigs) == 0 || sigs[0] == SigNone)
	n := wv.Len()
	switch {
	case shed:
		for n < len(vs) && (sigs == nil || sigs[n] == SigNone) {
			n++
		}
		r.tel.Shed.Add(uint64(n))
	case n > 0:
		wv.CopyIn(0, vs, sigs)
		r.publish(n)
	}
	return n, err
}

// ViewHeldFor implements Queue. Only explicit borrows are stamped: a
// port window is retired within a bounded time by construction, so it
// reports zero here and reads no clock.
func (r *Ring[T]) ViewHeldFor() time.Duration {
	since := r.viewSince.Load()
	if w := r.wviewSince.Load(); w != 0 && (since == 0 || w < since) {
		since = w
	}
	return sinceNanos(since)
}
