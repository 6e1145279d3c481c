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
// Both ring kinds implement the same surface:
//
//   - Ring[T] (mutex): the view pins the borrowed region. Best-effort
//     eviction never touches a pinned head (incoming signal-free elements
//     are shed instead, exactly like a signal-pinned head), and a Resize
//     requested while a view is out is deferred and applied at release, so
//     the backing array is never repacked under a borrower.
//   - SPSC[T] (lock-free): a read view spans one epoch — at most up to the
//     segment's sealed tail — and is valid across the epoch-swap resize by
//     construction: sealed segments are immutable (the producer only writes
//     sequences past the seal, which live in the successor), and the
//     consumer's segment pointer keeps the borrowed epoch alive. A pending
//     swap therefore completes at the producer's next operation while the
//     consumer still holds the old epoch's storage, and the consumer
//     follows across the seal after release — the same discipline DrainTo
//     uses, stretched over a borrow window.
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

// ViewHolder is implemented by queues supporting batch views; the monitor
// uses it to skip resize decisions for links whose storage is pinned by an
// outstanding borrow.
type ViewHolder interface {
	// ViewHeldFor returns how long the longest currently outstanding view
	// (read or write) has been held, or zero when none is out.
	ViewHeldFor() time.Duration
}

// ---------------------------------------------------------------------------
// Mutex ring
// ---------------------------------------------------------------------------

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

// ViewHeldFor implements ViewHolder. Only explicit borrows are stamped: a
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
// it. The monitor skips the link meanwhile, as it does for the lock-free
// ring's epoch swap: the capacity has not changed yet, so the evidence that
// asked for the resize would ask again.
func (r *Ring[T]) ResizePending() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deferredCap != 0
}

// ---------------------------------------------------------------------------
// Lock-free SPSC ring
// ---------------------------------------------------------------------------

// AcquireView borrows up to max buffered elements, spinning (with the
// usual escalating back-off) until at least one is available. The view
// spans a single epoch: at most up to the borrowed segment's sealed tail,
// so a swap installed mid-borrow never invalidates it. Once the queue is
// closed and drained it returns ErrClosed with an empty view.
func (q *SPSC[T]) AcquireView(max int) (View[T], error) {
	var spins int
	var blockedAt int64
	for {
		v, err := q.TryAcquireView(max)
		if v.Len() > 0 || err != nil {
			q.clearReaderBlock(blockedAt)
			return v, err
		}
		if blockedAt == 0 {
			blockedAt = nowNanos()
			q.readerBlockSince.Store(blockedAt)
		}
		backoff(&spins, &q.tel)
	}
}

// TryAcquireView is the non-blocking AcquireView: an empty view with a nil
// error when the queue is empty but open, (empty, ErrClosed) once it is
// closed and drained. Consumer-only, like TryPop.
func (q *SPSC[T]) TryAcquireView(max int) (View[T], error) {
	if max <= 0 {
		return View[T]{}, nil
	}
	if q.viewOut {
		panic("ringbuffer: TryAcquireView with a read view already outstanding")
	}
	h := q.head.Load()
	t := q.tail.Load()
	if t == h {
		if !q.closed.Load() {
			return View[T]{}, nil
		}
		// Re-check emptiness after observing closed: the producer may have
		// pushed between our tail load and its Close.
		t = q.tail.Load()
		if t == h {
			return View[T]{}, ErrClosed
		}
	}
	s := q.segFor(h)
	limit := t
	if sealed := s.sealedAt.Load(); sealed < limit {
		limit = sealed // this epoch ends before the tail
	}
	n := min(int(limit-h), max)
	i := int((h - s.base) & s.mask)
	first := min(n, len(s.vals)-i)
	v := View[T]{
		Vals: s.vals[i : i+first], Sigs: s.sigs[i : i+first],
		Vals2: s.vals[:n-first], Sigs2: s.sigs[:n-first],
	}
	q.viewOut, q.viewN, q.viewH = true, n, h
	q.viewSince.Store(nowNanos())
	return v, nil
}

// ReleaseView ends the outstanding read view, consuming its first n
// elements with a single head publish (they count as Pops, like DrainTo);
// the rest stay buffered.
func (q *SPSC[T]) ReleaseView(n int) {
	if !q.viewOut {
		panic("ringbuffer: ReleaseView without an outstanding view")
	}
	if n < 0 || n > q.viewN {
		panic("ringbuffer: ReleaseView past the borrowed window")
	}
	q.viewOut = false
	q.tel.Views.Inc()
	q.tel.ViewHoldNs.Add(uint64(nowNanos() - q.viewSince.Load()))
	q.viewSince.Store(0)
	if n == 0 {
		return
	}
	// The view was built from q.cons (segFor caches it), whose slots for
	// [viewH, viewH+n) are exactly the borrowed segments; zero them so the
	// GC can reclaim consumed payloads, then publish the head advance.
	s := q.cons
	h := q.viewH
	i := int((h - s.base) & s.mask)
	first := min(n, len(s.vals)-i)
	var zero T
	for j := 0; j < first; j++ {
		s.vals[i+j] = zero
	}
	for j := 0; j < n-first; j++ {
		s.vals[j] = zero
	}
	q.head.Store(h + uint64(n))
	q.tel.Pops.Add(uint64(n))
	q.notifyPopped(h)
}

// AcquireWriteView reserves up to max free slots of the producer's epoch,
// spinning until at least one is free. A pending epoch swap is installed
// first, so a full old ring never wedges the producer once the monitor has
// granted space. On a best-effort queue a full ring returns an empty view
// immediately instead of spinning (this side is drop-newest: the caller
// sheds via PushN, which counts the loss). Returns ErrClosed with an empty
// view on a closed queue.
func (q *SPSC[T]) AcquireWriteView(max int) (WriteView[T], error) {
	var spins int
	var blockedAt int64
	for {
		v, err := q.TryAcquireWriteView(max)
		if v.Len() > 0 || err != nil {
			q.clearWriterBlock(blockedAt)
			return v, err
		}
		if q.bestEffort.Load() {
			q.clearWriterBlock(blockedAt)
			return WriteView[T]{}, nil
		}
		if blockedAt == 0 {
			blockedAt = nowNanos()
			q.writerBlockSince.Store(blockedAt)
		}
		backoff(&spins, &q.tel)
	}
}

// TryAcquireWriteView is the non-blocking AcquireWriteView: an empty view
// with a nil error means the queue is full right now. Producer-only, like
// TryPush.
func (q *SPSC[T]) TryAcquireWriteView(max int) (WriteView[T], error) {
	if max <= 0 {
		return WriteView[T]{}, nil
	}
	if q.wviewOut {
		panic("ringbuffer: TryAcquireWriteView with a write view already outstanding")
	}
	if q.closed.Load() {
		return WriteView[T]{}, ErrClosed
	}
	t := q.tail.Load()
	if q.pending.Load() != nil {
		q.install(t)
	}
	s := q.prod
	h := q.head.Load()
	free := s.freeAt(t, h)
	if free == 0 {
		return WriteView[T]{}, nil
	}
	k := min(free, max)
	i := int((t - s.base) & s.mask)
	first := min(k, len(s.vals)-i)
	wv := WriteView[T]{
		Vals: s.vals[i : i+first], Sigs: s.sigs[i : i+first],
		Vals2: s.vals[:k-first], Sigs2: s.sigs[:k-first],
	}
	clearSignals(wv.Sigs)
	clearSignals(wv.Sigs2)
	q.wviewOut, q.wviewN, q.wviewT = true, k, t
	q.wviewSince.Store(nowNanos())
	return wv, nil
}

// ReleaseWriteView ends the outstanding write view, publishing its first n
// slots with a single tail store; the rest return to the free region.
func (q *SPSC[T]) ReleaseWriteView(n int) {
	if !q.wviewOut {
		panic("ringbuffer: ReleaseWriteView without an outstanding view")
	}
	if n < 0 || n > q.wviewN {
		panic("ringbuffer: ReleaseWriteView past the reserved window")
	}
	// The view was carved from q.prod at tail q.wviewT; an epoch swap
	// cannot have moved the producer meanwhile (installs happen only in
	// producer-side operations, and the producer was holding this view).
	s := q.prod
	t := q.wviewT
	var zero T
	for j := n; j < q.wviewN; j++ {
		s.vals[(t+uint64(j)-s.base)&s.mask] = zero
	}
	q.wviewOut = false
	q.tel.Views.Inc()
	q.tel.ViewHoldNs.Add(uint64(nowNanos() - q.wviewSince.Load()))
	q.wviewSince.Store(0)
	if n == 0 {
		return
	}
	q.tail.Store(t + uint64(n)) // release: publishes the batch
	q.tel.Pushes.Add(uint64(n))
	q.tel.recordOcc(int(t + uint64(n) - q.head.Load()))
	q.notifyPushed(t)
}

// ViewHeldFor implements ViewHolder.
func (q *SPSC[T]) ViewHeldFor() time.Duration {
	now := nowNanos()
	var d int64
	if since := q.viewSince.Load(); since != 0 && now-since > d {
		d = now - since
	}
	if since := q.wviewSince.Load(); since != 0 && now-since > d {
		d = now - since
	}
	return time.Duration(d)
}

// guard: both ring kinds implement the view surface and the monitor hook.
var (
	_ ViewHolder = (*Ring[int])(nil)
	_ ViewHolder = (*SPSC[int])(nil)
)
