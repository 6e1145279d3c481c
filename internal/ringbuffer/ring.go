package ringbuffer

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the initial capacity used when a caller passes a
// non-positive capacity to NewRing.
const DefaultCapacity = 64

// Ring is the dynamically resizable FIFO connecting two compute kernels.
// One producer goroutine and one consumer goroutine may use it
// concurrently; a third party (the runtime monitor) may call Resize, Len,
// Cap and the telemetry accessors at any time.
//
// Values and their synchronized signals are stored in parallel arrays so
// that PeekRange can hand the consumer a contiguous, copy-free view of the
// element array whenever the buffered region does not wrap (the same
// "non-wrapped position" the paper exploits for fast resizing, §4.1).
type Ring[T any] struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	vals []T
	sigs []Signal
	head int // index of the oldest element
	n    int // number of buffered elements

	closed     bool
	readOnly   bool // slice-backed rings reject writes and resizes
	bestEffort bool // full ring evicts oldest (latest-wins) instead of blocking
	maxCap     int  // growth bound; 0 means unbounded

	// writerBlockSince/readerBlockSince hold the UnixNano at which the
	// producer/consumer began waiting, or 0 when not blocked. They are
	// written by the blocking side and read lock-free by the monitor.
	writerBlockSince atomic.Int64
	readerBlockSince atomic.Int64

	// pendingDemand records the largest consumer request observed to exceed
	// capacity since the last Resize, for monitor visibility.
	pendingDemand atomic.Int64

	// Batch-view state (see view.go). While a read view is out the head
	// region is pinned: eviction stops and the storage may not be repacked.
	// While a write view is out the physical write index (head+n mod cap)
	// must stay fixed, so the empty-ring head reset is suppressed. Resizes
	// requested while either view is out are recorded in deferredCap and
	// applied at release.
	viewOut     bool
	viewN       int
	viewSince   int64
	wviewOut    bool
	wviewN      int
	wviewSince  int64
	deferredCap int

	// wake, when set, is called on readiness transitions (empty→non-empty,
	// full→non-full, close) while r.mu is held — see WakeHooker for the
	// contract the hook must obey.
	wake func(Wake)

	// prodOwner and consOwner are the kernels at the two ends of the stream
	// (nil for a ring used outside a graph). An end that is about to sleep
	// on this ring first has its owner retire every port window it holds —
	// see waitForSpaceLocked and window.go.
	prodOwner, consOwner WindowOwner

	// wpulled is how many slots of the open write window have already been
	// published from outside it (pullLocked). rwait is set while a consumer
	// sleeps in waitForItemsLocked and nobody has signalled it since: no
	// write window is opened then, the push goes straight in and wakes it.
	wpulled int
	rwait   bool

	tel Telemetry

	// Port windows (window.go). ww belongs to the producing goroutine and rw
	// to the consuming one; each is read and written without r.mu by its
	// side only, once per element, so each sits on cache lines of its own.
	_    [64]byte
	ww   window[T]
	wpub atomic.Int64  // slots of ww written so far; 0 when no window is open
	attn atomic.Uint32 // attnReader|attnClosed: the producer must visit the ring
	_    [64]byte
	rw   window[T]
	rpos int // elements of rw read so far; 0 when no window is open
	_    [64]byte
}

// NewRing returns a Ring with the given initial capacity (DefaultCapacity
// if capacity <= 0).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Ring[T]{
		vals: make([]T, capacity),
		sigs: make([]Signal, capacity),
	}
	r.notFull.L = &r.mu
	r.notEmpty.L = &r.mu
	return r
}

// NewRingFromSlice returns a read-only Ring whose element storage aliases
// data: no copy of the payload is ever made. It realizes the paper's
// zero-copy for_each source (§4.2, Fig. 6): the caller's array is used
// directly as the queue. The ring is created closed, so consumers drain
// data and then observe EOF.
func NewRingFromSlice[T any](data []T) *Ring[T] {
	r := &Ring[T]{
		vals:     data,
		sigs:     nil, // all SigNone; saves len(data) bytes and a fill pass
		head:     0,
		n:        len(data),
		closed:   true,
		readOnly: true,
	}
	r.notFull.L = &r.mu
	r.notEmpty.L = &r.mu
	return r
}

// SetMaxCap bounds the capacity the ring may grow to (the paper's "buffer
// cap" engineering solution for effectively unbounded queues, §4.1).
// A value <= 0 removes the bound.
func (r *Ring[T]) SetMaxCap(n int) {
	r.mu.Lock()
	r.maxCap = n
	r.mu.Unlock()
}

// SetBestEffort switches the ring's overflow policy: with best effort on, a
// push into a full ring evicts the oldest buffered elements instead of
// blocking the producer — latest-wins semantics for soft-real-time streams
// that degrade by freshness rather than latency. Evicted elements are
// counted in Telemetry.Evicted (they were pushed, and are never popped);
// shed incoming elements in Telemetry.Shed. Elements
// carrying a synchronized signal (EOF, termination) are never evicted: a
// signal-pinned head sheds the incoming signal-free elements instead, and a
// signal-carrying incoming element falls back to the blocking path so
// control flow is never lost.
func (r *Ring[T]) SetBestEffort(on bool) {
	r.mu.Lock()
	r.bestEffort = on
	r.mu.Unlock()
}

// BestEffort reports whether the ring runs the latest-wins overflow policy.
func (r *Ring[T]) BestEffort() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bestEffort
}

// evictLocked discards up to want of the oldest signal-free elements to
// make room for a best-effort push, stopping early at a signal-carrying
// head. Evictions count as Evicted, not Pops: the elements were never
// consumed, and the flow counters feeding λ̂/µ̂ must not see them.
func (r *Ring[T]) evictLocked(want int) {
	if r.viewOut {
		// The head region is borrowed by an outstanding read view: nothing
		// may be evicted from under it. Best-effort pushes shed the incoming
		// signal-free elements instead (the same fallback as a signal-pinned
		// head), so the producer still never blocks on payload.
		return
	}
	var zero T
	dropped := 0
	for dropped < want && r.n > 0 && r.sigAt(r.head) == SigNone {
		r.vals[r.head] = zero
		r.head = r.index0(r.head + 1)
		r.n--
		dropped++
	}
	if dropped > 0 {
		r.tel.Evicted.Add(uint64(dropped))
	}
	if r.n == 0 && !r.wviewOut {
		r.head = 0 // keep the buffer in the fast non-wrapped position
	}
}

// Len returns the number of buffered elements, counting those the producer
// has written into an open port window and not committed yet: the consumer
// obtains them the moment it finds nothing else (window.go).
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n + int(r.wpub.Load()) - r.wpulled
}

// Cap returns the current capacity.
func (r *Ring[T]) Cap() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.vals)
}

// Closed reports whether the producer closed the queue.
func (r *Ring[T]) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Close marks the producer side finished and wakes any waiters. Buffered
// elements remain readable. Close is idempotent.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	r.closed = true
	r.setAttnLocked(attnClosed)
	wake := r.wake
	r.mu.Unlock()
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	if wake != nil {
		wake(WakeClosed)
	}
}

// SetWakeHook installs (or, with nil, detaches) the scheduler wake hook.
// See WakeHooker for the contract.
func (r *Ring[T]) SetWakeHook(fn func(Wake)) {
	r.mu.Lock()
	r.wake = fn
	r.mu.Unlock()
}

// wokeNotEmpty fires the hook after an insert that filled an empty ring.
// Called with r.mu held.
func (r *Ring[T]) wokeNotEmpty(wasEmpty bool) {
	if wasEmpty && r.n > 0 && r.wake != nil {
		r.wake(WakeNotEmpty)
	}
}

// sigAt returns the signal stored at ring index i.
func (r *Ring[T]) sigAt(i int) Signal {
	if r.sigs == nil {
		return SigNone
	}
	return r.sigs[i]
}

// setSigAt stores signal s at ring index i, materializing the signal array
// for slice-backed rings only when a non-default signal appears.
func (r *Ring[T]) setSigAt(i int, s Signal) {
	if r.sigs == nil {
		if s == SigNone {
			return
		}
		r.sigs = make([]Signal, len(r.vals))
	}
	r.sigs[i] = s
}

// Push appends v with signal sig, blocking while the ring is full. It
// returns ErrClosed if the ring is or becomes closed. It is the scalar path
// of window.go at window length 1: one lock and one commit per element.
func (r *Ring[T]) Push(v T, sig Signal) error {
	_, _, err := r.PushWindowed(v, sig, 1, true)
	return err
}

// TryPush appends v with signal sig without blocking. It reports whether
// the element was accepted; err is ErrClosed when the ring is closed.
func (r *Ring[T]) TryPush(v T, sig Signal) (bool, error) {
	_, ok, err := r.PushWindowed(v, sig, 1, false)
	return ok, err
}

// PushBatch appends all of vs; the final element carries sig, earlier ones
// SigNone. It blocks as needed and returns ErrClosed on a closed ring.
func (r *Ring[T]) PushBatch(vs []T, sig Signal) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(vs) > 0 {
		if r.bestEffort && !r.closed && r.n == len(r.vals) {
			r.evictLocked(len(vs))
		}
		if err := r.waitForSpaceLocked(1); err != nil {
			return err
		}
		wasEmpty := r.n == 0
		free := len(r.vals) - r.n
		k := min(free, len(vs))
		for j := 0; j < k; j++ {
			i := r.index(r.n)
			r.vals[i] = vs[j]
			s := SigNone
			if j == k-1 && k == len(vs) {
				s = sig
			}
			r.setSigAt(i, s)
			r.n++
		}
		r.tel.Pushes.Add(uint64(k))
		r.tel.recordOcc(r.n)
		vs = vs[k:]
		r.notEmpty.Broadcast()
		r.wokeNotEmpty(wasEmpty)
	}
	return nil
}

// PushN appends all of vs with their parallel signals in bulk: one lock
// acquisition per batch (plus condition waits while full) instead of one per
// element, with the wrap-around handled as a two-copy split. sigs may be nil
// (every element carries SigNone) or must have len(vs) entries. PushN blocks
// as needed and returns ErrClosed on a closed ring.
func (r *Ring[T]) PushN(vs []T, sigs []Signal) error {
	if len(vs) == 0 {
		return nil
	}
	if sigs != nil && len(sigs) != len(vs) {
		panic("ringbuffer: PushN signal slice length mismatch")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(vs) > 0 {
		if r.bestEffort && !r.closed && !r.readOnly && r.n == len(r.vals) {
			r.evictLocked(len(vs))
			if r.n == len(r.vals) {
				// Head pinned by a signal-carrying element: shed the
				// incoming signal-free prefix instead of blocking, and let
				// any signal-carrying element fall through to the blocking
				// path below.
				shed := 0
				for shed < len(vs) && (sigs == nil || sigs[shed] == SigNone) {
					shed++
				}
				if shed > 0 {
					r.tel.Shed.Add(uint64(shed))
					vs = vs[shed:]
					if sigs != nil {
						sigs = sigs[shed:]
					}
					continue
				}
			}
		}
		if err := r.waitForSpaceLocked(1); err != nil {
			return err
		}
		wasEmpty := r.n == 0
		k := min(len(r.vals)-r.n, len(vs))
		r.enqueueLocked(vs[:k], sigs)
		vs = vs[k:]
		if sigs != nil {
			sigs = sigs[k:]
		}
		r.tel.Pushes.Add(uint64(k))
		r.tel.recordOcc(r.n)
		r.notEmpty.Broadcast()
		r.wokeNotEmpty(wasEmpty)
	}
	return nil
}

// enqueueLocked bulk-copies vs (and the matching prefix of sigs, which may
// be nil) into the free region starting at the write index, splitting into
// two copies when the region wraps. Caller guarantees len(vs) free slots.
func (r *Ring[T]) enqueueLocked(vs []T, sigs []Signal) {
	idx := r.index(r.n)
	first := min(len(vs), len(r.vals)-idx)
	copy(r.vals[idx:], vs[:first])
	copy(r.vals, vs[first:])
	if r.sigs == nil && anySignal(sigs, len(vs)) {
		r.sigs = make([]Signal, len(r.vals))
	}
	if r.sigs != nil {
		if sigs == nil {
			clearSignals(r.sigs[idx : idx+first])
			clearSignals(r.sigs[:len(vs)-first])
		} else {
			copy(r.sigs[idx:], sigs[:first])
			copy(r.sigs, sigs[first:len(vs)])
		}
	}
	r.n += len(vs)
}

// PopN removes up to len(dst) elements in bulk, blocking until at least one
// is available: one lock acquisition per batch with the wrap-around handled
// as a two-copy split. When sigs is non-nil its first n entries receive the
// elements' synchronized signals (it must hold at least len(dst) entries).
// Once the ring is closed and drained PopN returns (0, ErrClosed).
func (r *Ring[T]) PopN(dst []T, sigs []Signal) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.waitForItemsLocked(1); err != nil {
		return 0, err
	}
	return r.dequeueLocked(dst, sigs), nil
}

// DrainTo is the non-blocking PopN: it removes whatever is buffered, up to
// len(dst) elements, returning 0 with a nil error when the ring is empty but
// open and (0, ErrClosed) once it is closed and drained.
func (r *Ring[T]) DrainTo(dst []T, sigs []Signal) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.emptyLocked() {
		if r.closed {
			return 0, ErrClosed
		}
		return 0, nil
	}
	return r.dequeueLocked(dst, sigs), nil
}

// dequeueLocked bulk-copies min(r.n, len(dst)) elements (and signals, when
// requested) out of the head region, then drops them. Caller guarantees at
// least one buffered element.
func (r *Ring[T]) dequeueLocked(dst []T, sigs []Signal) int {
	n := min(r.n, len(dst))
	first := min(n, len(r.vals)-r.head)
	copy(dst, r.vals[r.head:r.head+first])
	copy(dst[first:n], r.vals)
	if sigs != nil {
		if r.sigs == nil {
			clearSignals(sigs[:n])
		} else {
			copy(sigs, r.sigs[r.head:r.head+first])
			copy(sigs[first:n], r.sigs)
		}
	}
	r.dropLocked(n)
	return n
}

// anySignal reports whether the first n entries of sigs carry a non-default
// signal (sigs may be nil).
func anySignal(sigs []Signal, n int) bool {
	for _, s := range sigs[:min(n, len(sigs))] {
		if s != SigNone {
			return true
		}
	}
	return false
}

// clearSignals zeroes a signal region (the compiler lowers this to memclr).
func clearSignals(s []Signal) {
	for i := range s {
		s[i] = SigNone
	}
}

// Pop removes and returns the oldest element and its signal, blocking while
// the ring is empty. Once the ring is closed and drained it returns
// ErrClosed. Like Push it is the windowed scalar path at window length 1.
func (r *Ring[T]) Pop() (T, Signal, error) {
	v, s, _, _, err := r.PopWindowed(1, true)
	return v, s, err
}

// TryPop removes the oldest element without blocking. ok reports whether an
// element was returned; err is ErrClosed once the ring is closed and empty.
func (r *Ring[T]) TryPop() (v T, s Signal, ok bool, err error) {
	v, s, _, ok, err = r.PopWindowed(1, false)
	return v, s, ok, err
}

// Peek returns the element at offset i from the head without removing it,
// blocking until at least i+1 elements are buffered. It returns ErrClosed
// if the ring closes before enough elements arrive.
func (r *Ring[T]) Peek(i int) (T, Signal, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.waitForItemsLocked(i + 1); err != nil {
		var zero T
		return zero, SigNone, err
	}
	idx := r.index(i)
	return r.vals[idx], r.sigAt(idx), nil
}

// PeekRange blocks until n elements are available and returns a view of
// them ordered oldest-first. Whenever the buffered region does not wrap,
// the returned slice aliases the ring's storage and no copy occurs; the
// view is valid until the next Recycle/Pop/Resize. This is the paper's
// sliding-window peek_range accessor (§3).
//
// If the ring closes with fewer than n elements buffered, PeekRange returns
// what remains along with ErrClosed. If n exceeds the current capacity the
// ring grows to accommodate the request — the read-side resize rule of
// §4.1 ("if the reading compute kernel requests more items than the queue
// has available then the queue is tagged for resizing"), performed
// synchronously by the reader so the request is always fulfilled.
func (r *Ring[T]) PeekRange(n int) ([]T, []Signal, error) {
	if n <= 0 {
		return nil, nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > len(r.vals) && !r.readOnly && !r.closed {
		r.pendingDemand.Store(int64(n))
		if r.maxCap > 0 && n > r.maxCap {
			// Correctness trumps the growth bound: a window request the
			// queue can never hold would deadlock the consumer (§4.1: "if a
			// kernel asks to receive five items and the buffer size is only
			// allocated for two, the program cannot continue").
			r.maxCap = n
		}
		if err := r.resizeLocked(growTarget(n, r.maxCap)); err != nil {
			return nil, nil, err
		}
		r.pendingDemand.Store(0)
	}
	if err := r.waitForItemsLocked(n); err != nil {
		// Closed with fewer than n elements: surface the remainder.
		n = r.n
		if n == 0 {
			return nil, nil, err
		}
		vs, ss := r.viewLocked(n)
		return vs, ss, err
	}
	vs, ss := r.viewLocked(n)
	return vs, ss, nil
}

// viewLocked returns the first n buffered elements, aliasing storage when
// the region is contiguous and copying only when it wraps.
func (r *Ring[T]) viewLocked(n int) ([]T, []Signal) {
	if r.head+n <= len(r.vals) {
		var ss []Signal
		if r.sigs != nil {
			ss = r.sigs[r.head : r.head+n]
		}
		return r.vals[r.head : r.head+n], ss
	}
	vs := make([]T, n)
	first := len(r.vals) - r.head
	copy(vs, r.vals[r.head:])
	copy(vs[first:], r.vals[:n-first])
	var ss []Signal
	if r.sigs != nil {
		ss = make([]Signal, n)
		copy(ss, r.sigs[r.head:])
		copy(ss[first:], r.sigs[:n-first])
	}
	return vs, ss
}

// Recycle discards the n oldest elements (after a PeekRange). It panics if
// n exceeds the buffered count, which indicates a consumer logic error.
func (r *Ring[T]) Recycle(n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.n {
		panic("ringbuffer: Recycle past end of buffered data")
	}
	r.dropLocked(n)
}

// dropLocked removes k elements from the head and wakes the producer.
func (r *Ring[T]) dropLocked(k int) {
	wasFull := r.n == len(r.vals)
	if !r.readOnly {
		// Release references so the GC can reclaim popped payloads. A
		// slice-backed ring's storage is the caller's array: left as it was.
		var zero T
		for j := 0; j < k; j++ {
			r.vals[r.index0(r.head+j)] = zero
		}
	}
	r.head = r.index0(r.head + k)
	r.n -= k
	if r.n == 0 && !r.wviewOut {
		// Keep the buffer in the fast non-wrapped position — unless a write
		// view is out, whose reserved slots sit at the physical index
		// (head+n) mod cap and must not move.
		r.head = 0
	}
	r.tel.Pops.Add(uint64(k))
	r.notFull.Broadcast()
	if wasFull && k > 0 && r.wake != nil {
		r.wake(WakeNotFull)
	}
}

// Resize changes the capacity to newCap, preserving buffered elements and
// leaving the buffer in the non-wrapped position (head == 0), which is the
// efficient layout the paper's resizer targets. Shrinking below the current
// length returns ErrTooSmall; resizing a slice-backed read-only ring or a
// ring whose buffered region is borrowed by an outstanding zero-copy view
// is the monitor's responsibility to avoid (the runtime only resizes
// between consumer windows).
func (r *Ring[T]) Resize(newCap int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resizeLocked(newCap)
}

func (r *Ring[T]) resizeLocked(newCap int) error {
	if r.readOnly {
		return ErrClosed
	}
	if newCap < 1 {
		newCap = 1
	}
	if r.maxCap > 0 && newCap > r.maxCap {
		newCap = r.maxCap
	}
	if newCap < r.n {
		return ErrTooSmall
	}
	if newCap == len(r.vals) {
		return nil
	}
	if r.viewOut || r.wviewOut {
		// An outstanding view aliases the backing array; repacking now would
		// pull the storage out from under the borrower. Record the target and
		// apply it when the last view is released (view.go).
		r.deferredCap = newCap
		return nil
	}
	grew := newCap > len(r.vals)
	nv := make([]T, newCap)
	ns := make([]Signal, newCap)
	for j := 0; j < r.n; j++ {
		idx := r.index0(r.head + j)
		nv[j] = r.vals[idx]
		if r.sigs != nil {
			ns[j] = r.sigs[idx]
		}
	}
	r.vals = nv
	r.sigs = ns
	r.head = 0
	r.tel.Resizes.Inc()
	if grew {
		r.tel.Grows.Inc()
	} else {
		r.tel.Shrinks.Inc()
	}
	// Capacity changed in the producer's favor (or consumer demand can now
	// be met); wake both sides to re-evaluate.
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
	if grew && r.wake != nil {
		r.wake(WakeNotFull)
	}
	return nil
}

// WriterBlockedFor returns how long the producer has currently been blocked
// waiting for free space, or zero if it is not blocked. Lock-free; intended
// for the monitor's 3×δ resize rule.
func (r *Ring[T]) WriterBlockedFor() time.Duration {
	since := r.writerBlockSince.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(nowNanos() - since)
}

// ReaderStarvedFor returns how long the consumer has currently been blocked
// waiting for data, or zero if it is not blocked.
func (r *Ring[T]) ReaderStarvedFor() time.Duration {
	since := r.readerBlockSince.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(nowNanos() - since)
}

// PendingDemand returns the largest outstanding consumer request observed
// to exceed capacity, or zero.
func (r *Ring[T]) PendingDemand() int { return int(r.pendingDemand.Load()) }

// Telemetry returns the ring's performance counters.
func (r *Ring[T]) Telemetry() *Telemetry { return &r.tel }

// waitForSpaceLocked blocks until at least k free slots exist. It must be
// called with r.mu held; it returns ErrClosed for closed/read-only rings.
func (r *Ring[T]) waitForSpaceLocked(k int) error {
	if r.readOnly {
		return ErrClosed
	}
	if r.closed {
		return ErrClosed
	}
	if len(r.vals)-r.n >= k {
		return nil
	}
	if o := r.prodOwner; o != nil {
		// The producing kernel is about to sleep. It must not do so on
		// uncommitted output or unreleased input, on this stream or any
		// other, or a neighbour could wait for exactly those elements.
		// The lock is dropped for the call (retiring takes other rings'
		// locks, and this one's for a kernel linked to itself); the wait
		// loop below re-reads everything.
		r.mu.Unlock()
		o.RetireWindows()
		r.mu.Lock()
	}
	start := nowNanos()
	r.writerBlockSince.Store(start)
	for len(r.vals)-r.n < k && !r.closed {
		r.notFull.Wait()
	}
	r.writerBlockSince.Store(0)
	r.tel.WriteBlockNs.Add(uint64(nowNanos() - start))
	if r.closed {
		return ErrClosed
	}
	return nil
}

// waitForItemsLocked blocks until at least k elements are buffered. It must
// be called with r.mu held; it returns ErrClosed if the ring closes first.
func (r *Ring[T]) waitForItemsLocked(k int) error {
	if r.n >= k {
		return nil
	}
	if r.closed {
		return ErrClosed
	}
	if o := r.consOwner; o != nil {
		// As in waitForSpaceLocked: retire the consuming kernel's windows
		// before it sleeps.
		r.mu.Unlock()
		o.RetireWindows()
		r.mu.Lock()
	}
	start := nowNanos()
	r.readerBlockSince.Store(start)
	for r.n < k && !r.closed {
		r.rwait = true
		if r.wpub.Load() != 0 {
			// A write window is out, and its producer does not take the lock
			// to push. Raise attn, then look at its cursor: a producer that
			// stores its cursor after this look reads attn after that store
			// and comes to wake us (window.go).
			r.setAttnLocked(attnReader)
			if r.pullLocked() {
				continue
			}
		}
		r.notEmpty.Wait()
	}
	r.rwait = false
	r.clearAttnLocked(attnReader)
	r.readerBlockSince.Store(0)
	r.tel.ReadBlockNs.Add(uint64(nowNanos() - start))
	if r.n < k {
		return ErrClosed
	}
	return nil
}

// index maps a logical offset from the head to a physical index.
func (r *Ring[T]) index(off int) int { return r.index0(r.head + off) }

// index0 wraps a physical index into the buffer.
func (r *Ring[T]) index0(i int) int {
	if i >= len(r.vals) {
		i -= len(r.vals)
	}
	return i
}

// growTarget doubles up from the demand to leave headroom, honoring maxCap.
func growTarget(demand, maxCap int) int {
	target := 1
	for target < demand {
		target <<= 1
	}
	if maxCap > 0 && target > maxCap {
		target = maxCap
	}
	if target < demand {
		target = demand // maxCap smaller than demand: fulfill the request
	}
	return target
}

func nowNanos() int64 { return time.Now().UnixNano() }

var _ Queue = (*Ring[int])(nil)
