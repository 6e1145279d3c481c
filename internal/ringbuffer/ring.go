package ringbuffer

import (
	"math"
	"reflect"
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
// The ends share no lock on the data path (DESIGN §4.1). Elements carry
// sequence numbers that never wrap: the producer owns tail, the next one it
// writes, and the consumer owns head, the next one it reads. Each end
// caches the other's index and re-reads it when its cache says full or
// empty. A push is a slot store and a store of tail, so the consumer sees
// each element at once; a release is a store of head. The mutex guards the
// slow paths only: sleeping and waking, Close, Peek and PeekRange,
// best-effort eviction and the resize handover.
//
// Values and their synchronized signals sit in parallel arrays, so a view
// of the buffered region is a pair of slices of the ring's own storage
// (view.go, window.go).
type Ring[T any] struct {
	// The first two cache lines hold the fields both ends read on their
	// fast paths and never write there. Storage is a chain of stores. live
	// is the one the producer writes; the consumer reads cst and moves to
	// the next store when head reaches the sealed end of its own. s0 is the
	// first, allocated with the ring.
	live       atomic.Pointer[store[T]]
	s0         store[T]
	closed     atomic.Bool
	bestEffort atomic.Bool
	readOnly   bool // slice-backed rings reject writes and resizes
	zero       bool // T holds pointers: released slots are zeroed for the GC
	// wparked is set under mu while the producer sleeps in waitForSpace.
	wparked bool
	// maxCap is the growth bound (0: unbounded) and deferredCap a resize
	// waiting for the producer (applyDeferredLocked), both under mu.
	maxCap      int32
	deferredCap int32
	// _ pads the shared section so that tail opens a cache line.
	_ [8]byte

	// The lock and the sleepers' condition, written on slow paths only,
	// are the line that keeps the shared fields from the producer's.
	mu sync.Mutex
	// wait is where an end sleeps, under mu, for room or for elements. The
	// two ends share it: a broadcast wakes at most the other end, since the
	// end that broadcasts is awake.
	wait sync.Cond

	// The producer's cache lines, from a line boundary on into the
	// producer's counters at the head of tel: tail and rattn are read by
	// others, the rest is the producer's own.
	tail       atomic.Uint64
	rattn      atomic.Uint32 // attnReader|attnClosed|attnResize: the producer must visit
	pbusy      atomic.Uint32 // 1 while the producer may write its store
	headCache  uint64
	ww         window[T]
	wviewN     int          // slots of the outstanding write view; 0 when none
	wviewSince atomic.Int64 // UnixNano of the explicit write view, 0 when none

	tel Telemetry // the producer's counters, the cold ones, the consumer's

	// The consumer's, after its counters.
	tailCache uint64
	cst       *store[T]
	rw        window[T]
	viewN     int          // elements of the outstanding read view; 0 when none
	viewSince atomic.Int64 // UnixNano of the explicit read view, 0 when none

	// wake, when set, is called under r.mu when an armed end may proceed
	// (see WakeHooker and Blocked). prodOwner and consOwner are the kernels
	// at the two ends of the stream (nil for a ring used outside a graph):
	// an end that is about to sleep on this ring first has its owner retire
	// every port window it holds. Set before the ends start and read only
	// as an end goes to sleep, they fill the line before head.
	wake                 WakeHook
	prodOwner, consOwner WindowOwner

	// head and wattn, which the producer reads, fill the last cache line
	// alone: the consumer's per-element writes (rw.pos) do not move the
	// line the producer loads.
	head  atomic.Uint64
	wattn atomic.Uint32 // attnWriter: the consumer must wake the producer
	_     [52]byte
}

// store is one backing array of the ring. A resize does not copy: it seals
// the live store at the producer's tail and starts an empty one there, so
// the new store begins unwrapped (the position the paper's resizer
// targets, §4.1) and the consumer drains the old one before following.
type store[T any] struct {
	vals   []T
	sigs   []Signal // nil only for a slice-backed ring: every signal is SigNone
	base   uint64   // sequence number of vals[0]
	size   int      // len(vals), kept apart so that readers race nothing
	mask   uint64   // size-1 when size is a power of two, else 0
	sealed atomic.Uint64
	next   atomic.Pointer[store[T]]
}

// noSeal is the sealed mark of the live store.
const noSeal = math.MaxUint64

func newStore[T any](vals []T, sigs []Signal, base uint64) *store[T] {
	s := &store[T]{}
	s.init(vals, sigs, base)
	return s
}

func (s *store[T]) init(vals []T, sigs []Signal, base uint64) {
	s.vals, s.sigs, s.base, s.size = vals, sigs, base, len(vals)
	if s.size&(s.size-1) == 0 {
		s.mask = uint64(s.size - 1)
	}
	s.sealed.Store(noSeal)
}

// at maps a sequence number to its index: a mask for the power-of-two
// capacities the monitor grows by, a division otherwise.
func (s *store[T]) at(seq uint64) int {
	if s.mask != 0 {
		return int((seq - s.base) & s.mask)
	}
	return int((seq - s.base) % uint64(s.size))
}

func (s *store[T]) sig(i int) Signal {
	if s.sigs == nil {
		return SigNone
	}
	return s.sigs[i]
}

// in clamps n to the elements from seq onward that this store holds.
func (s *store[T]) in(seq uint64, n int) int {
	if left := s.sealed.Load() - seq; left < uint64(n) {
		return int(left)
	}
	return n
}

// Bits of Ring.rattn, which the producer reads after every publish, and of
// Ring.wattn, which the consumer reads after every release. Both words are
// written under r.mu only.
const (
	attnReader = 1 << iota // the consumer found the ring empty: wake it
	attnWriter             // the producer found the ring full: wake it
	attnClosed             // the ring was closed; never cleared
	attnResize             // a resize waits for the producer's boundary
)

func setBits(w *atomic.Uint32, b uint32) {
	if a := w.Load(); a&b != b {
		w.Store(a | b)
	}
}

func clearBits(w *atomic.Uint32, b uint32) {
	if a := w.Load(); a&b != 0 {
		w.Store(a &^ b)
	}
}

// NewRing returns a Ring with the given initial capacity (DefaultCapacity
// if capacity <= 0).
func NewRing[T any](capacity int) *Ring[T] {
	r := new(Ring[T])
	r.Init(capacity)
	return r
}

// Init makes r, a zero Ring, what NewRing(capacity) returns, for a header
// that is part of a larger allocation (an array of rings); r must not be
// copied afterwards. Its stores are apart, so that a resize can free them.
func (r *Ring[T]) Init(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r.zero = !PointerFree(reflect.TypeFor[T]())
	r.init(make([]T, capacity), make([]Signal, capacity))
}

// NewRingFromSlice returns a read-only Ring whose element storage aliases
// data: no copy of the payload is ever made. It realizes the paper's
// zero-copy for_each source (§4.2, Fig. 6): the caller's array is used
// directly as the queue, and is left as it was while it drains. The ring is
// created closed, so consumers drain data and then observe EOF.
func NewRingFromSlice[T any](data []T) *Ring[T] {
	r := &Ring[T]{readOnly: true}
	r.init(data, nil)
	r.tail.Store(uint64(len(data)))
	r.closed.Store(true)
	return r
}

func (r *Ring[T]) init(vals []T, sigs []Signal) {
	r.s0.init(vals, sigs, 0)
	r.live.Store(&r.s0)
	r.cst = &r.s0
	r.wait.L = &r.mu
}

// PointerFree reports whether values of type t hold no pointers, so that
// storage holding them needs no clearing for the garbage collector and can
// be reused as raw memory.
func PointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32,
		reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return PointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !PointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// SetMaxCap bounds the capacity the ring may grow to (the paper's "buffer
// cap" engineering solution for effectively unbounded queues, §4.1).
// A value <= 0 removes the bound.
func (r *Ring[T]) SetMaxCap(n int) {
	r.mu.Lock()
	r.maxCap = int32(min(n, math.MaxInt32))
	r.mu.Unlock()
}

// SetBestEffort switches the ring's overflow policy, before its ends start:
// with best effort on, a push into a full ring evicts the oldest buffered
// elements instead of blocking the producer — latest-wins semantics for
// soft-real-time streams that degrade by freshness rather than latency.
// Evicted elements are counted in Telemetry.Evicted (they were pushed, and
// are never popped); shed incoming elements in Telemetry.Shed. Elements
// carrying a synchronized signal (EOF, termination) are never evicted: a
// signal-pinned head sheds the incoming signal-free elements instead, and a
// signal-carrying incoming element falls back to the blocking path so
// control flow is never lost. Eviction moves the consumer's head, so on a
// best-effort ring the consumer takes the lock for each operation and
// neither end is windowed.
func (r *Ring[T]) SetBestEffort(on bool) { r.bestEffort.Store(on) }

// BestEffort reports whether the ring runs the latest-wins overflow policy.
func (r *Ring[T]) BestEffort() bool { return r.bestEffort.Load() }

// lockBE takes the lock for a consumer operation on a best-effort ring.
func (r *Ring[T]) lockBE() bool {
	if r.bestEffort.Load() {
		r.mu.Lock()
		return true
	}
	return false
}

// evictLocked discards up to want of the oldest signal-free elements to
// make room for a best-effort push, stopping early at a signal-carrying
// head. Evictions count as Evicted, not Pops: the elements were never
// consumed, and the flow counters feeding λ̂/µ̂ must not see them.
func (r *Ring[T]) evictLocked(want int) {
	if r.viewN != 0 {
		// The head region is borrowed by an outstanding read view: nothing
		// may be evicted from under it. Best-effort pushes shed the incoming
		// signal-free elements instead (the same fallback as a signal-pinned
		// head), so the producer still never blocks on payload.
		return
	}
	h, t := r.head.Load(), r.tail.Load()
	n := 0
	for ; n < want && h < t; n++ {
		st := r.seek(h)
		i := st.at(h)
		if st.sig(i) != SigNone {
			break
		}
		if r.zero {
			var zero T
			st.vals[i] = zero
		}
		h++
	}
	r.head.Store(h)
	r.tel.Evicted.Add(uint64(n))
}

// Len returns the number of buffered elements: everything published and
// not released, which includes what the consumer's open read window has
// handed out.
func (r *Ring[T]) Len() int {
	for i := 0; ; i++ {
		h := r.head.Load()
		t := r.tail.Load()
		if i == 8 || r.head.Load() == h {
			return int(t - h)
		}
	}
}

// buffered is Len for the consumer, whose head cannot move under it.
func (r *Ring[T]) buffered() int { return int(r.tail.Load() - r.head.Load()) }

// Cap returns the current capacity.
func (r *Ring[T]) Cap() int { return r.live.Load().size }

// Closed reports whether the producer closed the queue.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }

// Close marks the producer side finished and wakes any waiters. Buffered
// elements remain readable. Close is idempotent.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	r.closed.Store(true)
	setBits(&r.rattn, attnClosed)
	wake := r.wake
	r.mu.Unlock()
	r.wait.Broadcast()
	if wake != nil {
		wake.OnWake(WakeClosed)
	}
}

// SetWakeHook installs (or, with nil, detaches) the scheduler wake hook.
// See WakeHooker for the contract.
func (r *Ring[T]) SetWakeHook(h WakeHook) {
	r.mu.Lock()
	r.wake = h
	r.mu.Unlock()
}

// Push appends v with signal sig, blocking while the ring is full. It
// returns ErrClosed if the ring is or becomes closed. It is the scalar path
// of window.go at window length 1.
func (r *Ring[T]) Push(v T, sig Signal) error {
	_, _, err := r.PushWindowed(v, sig, 1, true)
	return err
}

// TryPush appends v with signal sig without blocking. It reports whether
// the element was accepted; err is ErrClosed when the ring is closed. A
// refusal arms the producer's end (see Blocked).
func (r *Ring[T]) TryPush(v T, sig Signal) (bool, error) {
	_, ok, err := r.PushWindowed(v, sig, 1, false)
	return ok, err
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
// Finding nothing arms the consumer's end (see Blocked).
func (r *Ring[T]) TryPop() (v T, s Signal, ok bool, err error) {
	v, s, _, ok, err = r.PopWindowed(1, false)
	return v, s, ok, err
}

// The producer's side. Every section in which it may write its store sits
// between enter and exit, which is what lets a resize seal the store
// without a lock on the data path.

// enter marks the producer busy and returns the store to write, first
// installing a resize that waits for it.
func (r *Ring[T]) enter() *store[T] {
	for {
		r.pbusy.Store(1)
		if r.rattn.Load()&attnResize == 0 {
			return r.live.Load()
		}
		r.exit()
	}
}

// exit marks the producer idle and then does what it was asked for: wake
// a consumer that found the ring empty, install a resize. Each is one side
// of a Dekker pair — this end stores pbusy or tail and then loads rattn, the
// other stores rattn and then loads pbusy or tail — so one of the two
// always sees the other.
func (r *Ring[T]) exit() {
	r.pbusy.Store(0)
	if r.rattn.Load()&(attnReader|attnResize) != 0 {
		r.mu.Lock()
		r.attendLocked()
		r.mu.Unlock()
	}
}

// attendLocked wakes a consumer that found the ring empty; its bit comes
// down after the hook (WakePending).
func (r *Ring[T]) attendLocked() {
	if r.rattn.Load()&attnReader != 0 {
		r.wait.Broadcast()
		if r.wake != nil {
			r.wake.OnWake(WakeNotEmpty)
		}
		clearBits(&r.rattn, attnReader)
	}
	r.applyDeferredLocked()
}

// free returns the free slots at tail t in store st, re-reading head when
// the cached copy shows fewer than want.
func (r *Ring[T]) free(st *store[T], t uint64, want int) int {
	f := st.size - int(t-r.headCache)
	if f < want {
		r.headCache = r.head.Load()
		f = st.size - int(t-r.headCache)
	}
	return max(f, 0)
}

// room waits (block) until the producer's store has a free slot at the
// tail and returns the store, the tail and the free count. A full
// best-effort ring evicts first; if its head is pinned and the caller may
// shed (shedOK), shed is set and nothing waits. With block unset a full
// ring arms the producer's end and returns a zero count. Called between
// enter and exit.
func (r *Ring[T]) room(st *store[T], want int, block, shedOK bool) (_ *store[T], t uint64, f int, shed bool, err error) {
	t = r.tail.Load()
	for {
		if r.closed.Load() {
			return st, t, 0, false, ErrClosed
		}
		if f = r.free(st, t, want); f > 0 {
			return r.rebase(st, t, f), t, f, false, nil
		}
		if r.bestEffort.Load() {
			r.mu.Lock()
			r.evictLocked(want)
			r.mu.Unlock()
			if f = r.free(st, t, want); f > 0 {
				return st, t, f, false, nil
			}
			if shedOK {
				return st, t, 0, true, nil
			}
		}
		if !block {
			if r.armFull() {
				return st, t, 0, false, nil
			}
			continue
		}
		if err = r.waitForSpace(); err != nil {
			return st, t, 0, false, err
		}
		st = r.live.Load()
	}
}

// rebase starts an empty ring over at index 0 — the fast non-wrapped
// position — so that the windows and views that follow do not wrap. f ==
// size proves head == tail: no element, window or view of the consumer's is
// left, and the consumer reads base only after a tail that this write
// precedes.
func (r *Ring[T]) rebase(st *store[T], t uint64, f int) *store[T] {
	if f == st.size && st.base != t {
		st.base = t
	}
	return st
}

// account counts n elements published in one commit and samples the
// occupancy they left. head is re-read only when the cached copy is more
// than this commit behind tail: a consumer that keeps up costs the producer
// no load of its line, and the sample (at most n) then lands in the bucket
// of one commit.
func (r *Ring[T]) account(n int) {
	r.tel.Pushes.Add(uint64(n))
	t := r.tail.Load()
	if t-r.headCache > uint64(n) {
		r.headCache = r.head.Load()
	}
	r.tel.recordOcc(int(t - r.headCache))
}

// armFull raises attnWriter and reports whether the ring is still full with
// it raised; the consumer's next release then wakes this end.
func (r *Ring[T]) armFull() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	setBits(&r.wattn, attnWriter)
	return !r.closed.Load() && r.free(r.live.Load(), r.tail.Load(), 1) == 0
}

// armEmpty is armFull for the consumer.
func (r *Ring[T]) armEmpty(locked bool) bool {
	if !locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	setBits(&r.rattn, attnReader)
	return !r.closed.Load() && r.buffered() == 0
}

// Blocked implements Queue. A best-effort ring never blocks its producer:
// a push there evicts or sheds instead of waiting (room).
func (r *Ring[T]) Blocked(producer bool) bool {
	if r.closed.Load() {
		return false
	}
	if producer {
		return r.free(r.live.Load(), r.tail.Load(), 1) == 0 && !r.bestEffort.Load() && r.armFull()
	}
	return r.buffered() == 0 && r.armEmpty(false)
}

// WakePending implements WakeHooker: the end's bit is still up (it comes
// down after the hook) over data or space. A stale bit, of an end that
// armed and then found data or space, reads as pending until the other
// end's next transition.
func (r *Ring[T]) WakePending(producer bool) bool {
	if producer {
		return r.wattn.Load()&attnWriter != 0 && r.Len() < r.Cap()
	}
	return r.rattn.Load()&attnReader != 0 && r.buffered() > 0
}

// Wait implements Queue.
func (r *Ring[T]) Wait(producer bool) {
	if !producer {
		_ = r.waitForItems(1, false)
	} else if !r.bestEffort.Load() && r.free(r.live.Load(), r.tail.Load(), 1) == 0 {
		_ = r.waitForSpace()
	}
}

// waitForSpace sleeps until the producer's store has a free slot. The
// producer is idle for the resizer meanwhile (wparked).
func (r *Ring[T]) waitForSpace() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o := r.prodOwner; o != nil {
		// The producing kernel is about to sleep. It must not do so on
		// uncommitted output or unreleased input, on this stream or any
		// other, or a neighbour could wait for exactly those elements.
		// The lock is dropped for the call (retiring takes other rings'
		// locks, and this one's for a kernel linked to itself).
		r.mu.Unlock()
		o.RetireAll()
		r.mu.Lock()
	}
	start := nowNanos()
	r.tel.writerBlockSince.Store(start)
	r.wparked = true
	r.applyDeferredLocked()
	for !r.closed.Load() {
		setBits(&r.wattn, attnWriter)
		if r.free(r.live.Load(), r.tail.Load(), 1) > 0 {
			break
		}
		r.wait.Wait()
	}
	r.wparked = false
	clearBits(&r.wattn, attnWriter)
	r.tel.writerBlockSince.Store(0)
	r.tel.WriteBlockNs.Add(uint64(nowNanos() - start))
	if r.closed.Load() {
		return ErrClosed
	}
	return nil
}

// The consumer's side.

// waitMode is how a consumer operation meets an empty ring: sleep, arm the
// end and return (a try), or return.
type waitMode uint8

const (
	waitBlock waitMode = iota
	waitTry
	waitNone
)

// avail returns the store holding head, head itself, and how many elements
// from head on that store holds, at most want; tail is re-read when the
// cached copy shows fewer than want.
func (r *Ring[T]) avail(want int) (st *store[T], h uint64, n int) {
	h = r.head.Load()
	if r.tailCache < h+uint64(want) {
		r.tailCache = r.tail.Load()
	}
	if r.tailCache <= h {
		return r.cst, h, 0
	}
	st = r.seek(h)
	return st, h, st.in(h, min(int(r.tailCache-h), want))
}

// seek moves the consumer to the store holding sequence h, letting go of
// the stores it has drained. tail is loaded before any store's seal, and a
// resize seals before the producer publishes past the seal, so every
// element below a tail the consumer has seen is where seek finds it.
func (r *Ring[T]) seek(h uint64) *store[T] {
	st := r.cst
	for h >= st.sealed.Load() {
		next := st.next.Load()
		st.vals, st.sigs = nil, nil
		st.next.Store(nil)
		st = next
	}
	r.cst = st
	return st
}

// take returns the head's store, head and up to want elements available
// there, meeting an empty ring as mode says. A zero count comes with
// ErrClosed on a closed, drained ring and nil otherwise.
func (r *Ring[T]) take(want int, mode waitMode, locked bool) (st *store[T], h uint64, n int, err error) {
	for {
		closed := r.closed.Load()
		if st, h, n = r.avail(want); n > 0 {
			return st, h, n, nil
		}
		switch {
		case closed:
			return st, h, 0, ErrClosed
		case mode == waitBlock:
			_ = r.waitForItems(1, locked) // the loop re-reads what it found
		case mode == waitNone || r.armEmpty(locked):
			return st, h, 0, nil
		}
	}
}

// drop releases n elements at head h, all in store st: it zeroes them when
// T holds pointers (the GC must be able to collect popped payloads),
// publishes head and wakes a producer that found the ring full.
func (r *Ring[T]) drop(st *store[T], h uint64, n int, locked bool) {
	if r.zero {
		i := st.at(h)
		first := min(n, st.size-i)
		clear(st.vals[i : i+first])
		clear(st.vals[:n-first])
	}
	r.head.Store(h + uint64(n))
	r.tel.Pops.Add(uint64(n))
	if r.wattn.Load() != 0 {
		if !locked {
			r.mu.Lock()
			defer r.mu.Unlock()
		}
		if r.wattn.Load() != 0 {
			r.wait.Broadcast()
			if r.wake != nil {
				r.wake.OnWake(WakeNotFull)
			}
			clearBits(&r.wattn, attnWriter)
		}
	}
}

// waitForItems sleeps until at least k elements are buffered or the ring
// is closed, which it reports as ErrClosed when fewer than k are left.
func (r *Ring[T]) waitForItems(k int, locked bool) error {
	if !locked {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	if r.buffered() >= k {
		return nil
	}
	if o := r.consOwner; o != nil && !r.closed.Load() {
		// As in waitForSpace: retire the consuming kernel's windows before
		// it sleeps.
		r.mu.Unlock()
		o.RetireAll()
		r.mu.Lock()
	}
	start := nowNanos()
	r.tel.readerBlockSince.Store(start)
	for {
		setBits(&r.rattn, attnReader)
		closed := r.closed.Load()
		if r.buffered() >= k || closed {
			break
		}
		r.wait.Wait()
	}
	clearBits(&r.rattn, attnReader)
	r.tel.readerBlockSince.Store(0)
	r.tel.ReadBlockNs.Add(uint64(nowNanos() - start))
	if r.buffered() < k {
		return ErrClosed
	}
	return nil
}

// locate returns the store and index holding buffered sequence seq.
func (r *Ring[T]) locate(seq uint64) (*store[T], int) {
	st := r.seek(r.head.Load())
	for seq >= st.sealed.Load() {
		st = st.next.Load()
	}
	return st, st.at(seq)
}

// Peek returns the element at offset i from the head without removing it,
// blocking until at least i+1 elements are buffered. It returns ErrClosed
// if the ring closes before enough elements arrive.
func (r *Ring[T]) Peek(i int) (T, Signal, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.waitForItems(i+1, true); err != nil {
		var zero T
		return zero, SigNone, err
	}
	st, j := r.locate(r.head.Load() + uint64(i))
	return st.vals[j], st.sig(j), nil
}

// PeekRange blocks until n elements are available and returns a view of
// them ordered oldest-first. Whenever the buffered region is contiguous in
// one store the returned slice aliases the ring's storage and no copy
// occurs; the view is valid until the next Recycle/Pop/Resize. This is the
// paper's sliding-window peek_range accessor (§3).
//
// If the ring closes with fewer than n elements buffered, PeekRange returns
// what remains along with ErrClosed. If n exceeds the current capacity the
// ring grows to accommodate the request — the read-side resize rule of
// §4.1 ("if the reading compute kernel requests more items than the queue
// has available then the queue is tagged for resizing").
func (r *Ring[T]) PeekRange(n int) ([]T, []Signal, error) {
	if n <= 0 {
		return nil, nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.Cap() && !r.readOnly && !r.closed.Load() {
		if maxCap := int(r.maxCap); maxCap > 0 && n > maxCap {
			// Correctness trumps the growth bound: a window request the
			// queue can never hold would deadlock the consumer (§4.1: "if a
			// kernel asks to receive five items and the buffer size is only
			// allocated for two, the program cannot continue").
			r.maxCap = int32(min(n, math.MaxInt32))
		}
		if err := r.resizeLocked(growTarget(n, int(r.maxCap))); err != nil {
			return nil, nil, err
		}
	}
	err := r.waitForItems(n, true)
	if err != nil {
		// Closed with fewer than n elements: surface the remainder.
		if n = r.buffered(); n == 0 {
			return nil, nil, err
		}
	}
	vs, ss := r.viewLocked(n)
	return vs, ss, err
}

// viewLocked returns the first n buffered elements, aliasing storage when
// they are contiguous in one store and copying otherwise.
func (r *Ring[T]) viewLocked(n int) ([]T, []Signal) {
	h := r.head.Load()
	st := r.seek(h)
	if i := st.at(h); st.in(h, n) == n && i+n <= st.size {
		var ss []Signal
		if st.sigs != nil {
			ss = st.sigs[i : i+n]
		}
		return st.vals[i : i+n], ss
	}
	vs, ss := make([]T, n), make([]Signal, n)
	for j := range vs {
		s, i := r.locate(h + uint64(j))
		vs[j], ss[j] = s.vals[i], s.sig(i)
	}
	return vs, ss
}

// Recycle discards the n oldest elements (after a PeekRange). It panics if
// n exceeds the buffered count, which indicates a consumer logic error.
func (r *Ring[T]) Recycle(n int) {
	if n <= 0 {
		return
	}
	locked := r.lockBE()
	if locked {
		defer r.mu.Unlock()
	}
	if n > r.buffered() {
		panic("ringbuffer: Recycle past end of buffered data")
	}
	for n > 0 {
		h := r.head.Load()
		st := r.seek(h)
		k := st.in(h, n)
		r.drop(st, h, k, locked)
		n -= k
	}
}

// Resize changes the capacity to newCap, preserving buffered elements;
// shrinking below the current length returns ErrTooSmall. The new store is
// installed at once when the producer is idle or asleep, and otherwise at
// its next boundary — the end of the write window or view it holds, at
// most one push away (ResizePending reports the wait). Read views and
// windows never delay it: the consumer reads on in the sealed store.
func (r *Ring[T]) Resize(newCap int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resizeLocked(newCap)
}

func (r *Ring[T]) resizeLocked(newCap int) error {
	if r.readOnly {
		return ErrClosed
	}
	newCap = max(newCap, 1)
	if r.maxCap > 0 {
		newCap = min(newCap, int(r.maxCap))
	}
	if newCap < r.Len() {
		return ErrTooSmall
	}
	if newCap == r.Cap() {
		// Back to the installed capacity: a resize still waiting for the
		// producer is cancelled, not left to apply.
		r.deferredCap = 0
		clearBits(&r.rattn, attnResize)
		return nil
	}
	r.deferredCap = int32(min(newCap, math.MaxInt32))
	setBits(&r.rattn, attnResize)
	r.applyDeferredLocked()
	return nil
}

// applyDeferredLocked installs a requested resize if the producer cannot
// be writing: it is idle (the load of pbusy after the resizer's store of
// attnResize), asleep, or the caller. The target is clamped to the current
// length: the request was accepted, so it must not start failing because
// the buffer filled meanwhile.
func (r *Ring[T]) applyDeferredLocked() {
	if r.deferredCap == 0 || r.pbusy.Load() != 0 && !r.wparked {
		return
	}
	old := r.live.Load()
	target := max(int(r.deferredCap), r.Len())
	r.deferredCap = 0
	// The bit goes down only once live is the new store: a producer that
	// enters after reading it down must load the new one.
	defer clearBits(&r.rattn, attnResize)
	if target == old.size {
		return
	}
	t := r.tail.Load()
	ns := newStore(make([]T, target), make([]Signal, target), t)
	old.next.Store(ns)
	old.sealed.Store(t)
	r.live.Store(ns)
	r.tel.Resizes.Inc()
	grew := target > old.size
	if grew {
		r.tel.Grows.Inc()
	} else {
		r.tel.Shrinks.Inc()
	}
	// Capacity changed in the producer's favor (or consumer demand can now
	// be met); wake both sides to re-evaluate.
	r.wait.Broadcast()
	if grew && r.wake != nil {
		r.wake.OnWake(WakeNotFull)
	}
}

// ResizePending reports whether an accepted Resize still waits for the
// producer's boundary. The monitor skips the link meanwhile: the capacity
// has not changed yet, so the evidence that asked for the resize would ask
// again. It takes no lock: the attnResize bit goes up and down with
// deferredCap, under mu.
func (r *Ring[T]) ResizePending() bool {
	return r.rattn.Load()&attnResize != 0
}

// WriterBlockedFor returns how long the producer has currently been blocked
// waiting for free space, or zero if it is not blocked. Lock-free; intended
// for the monitor's 3×δ resize rule.
func (r *Ring[T]) WriterBlockedFor() time.Duration {
	return sinceNanos(r.tel.writerBlockSince.Load())
}

// ReaderStarvedFor returns how long the consumer has currently been blocked
// waiting for data, or zero if it is not blocked.
func (r *Ring[T]) ReaderStarvedFor() time.Duration {
	return sinceNanos(r.tel.readerBlockSince.Load())
}

func sinceNanos(since int64) time.Duration {
	if since == 0 {
		return 0
	}
	return time.Duration(nowNanos() - since)
}

// Telemetry returns the ring's performance counters.
func (r *Ring[T]) Telemetry() *Telemetry { return &r.tel }

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
