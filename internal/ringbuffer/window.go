package ringbuffer

import "sync/atomic"

// Port windows: the scalar path as an index into a borrowed view.
//
// An element-wise Push or Pop that takes the ring lock, bumps the shared
// counters and signals a condition variable costs what one synchronisation
// costs, per element. A window is a view (view.go) that one end of the
// stream keeps across scalar operations: the producer borrows a run of free
// slots and writes into it, the consumer borrows a run of buffered elements
// and reads out of it, each through a cursor only its own goroutine moves.
// The ring — lock, counters, occupancy sample, condition signal, wake hook —
// is visited once per window:
//
//   - a write window is committed (what it holds becomes buffered elements)
//     when its last slot is written, when an element carries a signal, and
//     whenever its owner retires it with CommitWindow;
//   - a read window is released (its consumed prefix leaves the ring) when
//     its last element is read and whenever its owner retires it with
//     ReleaseWindow.
//
// So an open write window always has a free slot and an open read window an
// unread element, and WindowPos is non-zero exactly while a window is open.
// When to retire beyond that — at step boundaries, after a bounded run time
// — is the port layer's policy. Two rules are enforced here, because only
// the ring can enforce them:
//
//   - an end about to sleep on this ring first has its owner retire every
//     window it holds (waitForSpaceLocked, waitForItemsLocked), so no kernel
//     sleeps on a port while a neighbour waits for what it is sitting on;
//   - a consumer never goes without an element the producer has finished
//     writing. The write cursor is published with an atomic store per
//     element (the one price the fast path pays), and a consumer that finds
//     the ring empty pulls the written slots over itself (pullLocked)
//     instead of sleeping. When there is nothing to pull it raises attn
//     before it sleeps beside the window, and a producer that finds attn
//     raised after publishing its cursor does the pull for it (Attend).
//     One of the two always sees the other: the consumer stores attn and
//     then loads the cursor, the producer stores the cursor and then loads
//     attn. A consumer that sleeps with no window out is woken by the next
//     push, which goes straight in (rwait); the pushes after that one open
//     a window. Together that covers the producer the runtime cannot see
//     stopping — one blocked inside Run on a channel, a socket or a sleep —
//     at whatever point it stops, with no timer and nothing for the kernel
//     to call.
//
// The read side needs no such rule. A consumer that stops while it holds a
// read window keeps at most half the ring from the producer, which is
// back-pressure arriving early, not an element going missing.
//
// A window is at most half the ring, so both ends can hold one at once, and
// one contiguous segment, so the cursor is a plain slice index. Window
// length 1 opens nothing: the element is pushed or popped under the one
// lock acquisition, which is what Push and Pop are. Best-effort rings are
// never windowed (a held window would turn latest-wins eviction into
// shedding), nor are signal-carrying pushes.
//
// To the monitor a window is a view without a hold time: a Resize that
// arrives while one is out is deferred to the next retire, at most one
// window away (ResizePending says so); ViewHeldFor, Views and ViewHoldNs
// count explicit borrows only, so retiring a window reads no clock. Len
// counts what the consumer could obtain: committed elements, including
// those a read window has handed out and not released, plus written slots
// of the write window.
//
// Any other operation by the same end (PushN, PopN, Peek, views, Close)
// requires that end's window to be retired first; raft's port layer does so.

// WindowOwner is the kernel at one end of a stream. RetireWindows commits
// every write window and releases every read window the kernel holds, on
// all of its streams; the ring calls it on the owner's own goroutine.
type WindowOwner interface {
	RetireWindows()
}

// Windower is the element-type-agnostic window surface of Ring[T], through
// which the port layer retires windows and corrects lengths without knowing
// the element type.
type Windower interface {
	// SetWindowOwner names the kernel at the producing or consuming end.
	SetWindowOwner(producer bool, o WindowOwner)
	// CommitWindow retires the write window, returning how many elements
	// that published (0 when none was open). Producer only.
	CommitWindow() int
	// ReleaseWindow retires the read window, returning how many elements
	// that consumed (0 when none was open). Consumer only.
	ReleaseWindow() int
	// WindowPos returns the cursor of one end's window: elements written
	// and not yet committed (producer) or read and not yet released
	// (consumer); 0 when no window is open. Valid on that end's goroutine.
	WindowPos(producer bool) int
}

// window is one end's borrowed segment of ring storage. Its cursor is wpub
// on the write side and rpos on the read side (see Ring).
type window[T any] struct {
	vals []T
	sigs []Signal // nil on the read side of a ring that never saw a signal
}

// Bits of Ring.attn, the word a producer reads after every store into its
// window. Both are written under r.mu.
const (
	// attnReader: a consumer found nothing to take, not even in the open
	// write window, and is about to sleep beside it. Whoever publishes out
	// of that window clears it; the consumer does when it wakes.
	attnReader = 1 << iota
	// attnClosed: the ring was closed, possibly under an open write window
	// (a consumer that died, an aborted run). Never cleared.
	attnClosed
)

// setAttnLocked raises bits of attn and clearAttnLocked lowers them; neither
// writes the word (the producer's cache line) when it already reads so.
func (r *Ring[T]) setAttnLocked(bits uint32) {
	if a := r.attn.Load(); a&bits != bits {
		r.attn.Store(a | bits)
	}
}

func (r *Ring[T]) clearAttnLocked(bits uint32) {
	if a := r.attn.Load(); a&bits != 0 {
		r.attn.Store(a &^ bits)
	}
}

// lockSpins bounds how long a window operation spins for the ring lock before
// it parks on it: each failed try is a load of the lock word and a pause of
// about 30 ns, so 256 tries are under 10 µs, against a critical section of
// well under 100 ns on every path but a resize.
const lockSpins = 256

// spinPause is what the pause between two tries loads; nothing stores it.
var spinPause atomic.Uint32

// lockWindow takes r.mu for a window operation — opening, committing or
// releasing a window, Attend — by trying it in a bounded spin before it falls
// back to Lock. When the two ends of a ring meet on the lock the holder is a
// few instructions from releasing it; sync.Mutex spins only while the
// processor's run queue is empty, which it is not once a graph has more
// kernels than processors, so there Lock parks the goroutine at once. A
// parked goroutine is made runnable on the unlocker's processor, behind the
// unlocker, and runs when that one next blocks or is preempted: measured on
// the three-kernel scalar pipeline on two processors, ~3000 such parks per
// 8.5 M elements kept the middle kernel runnable-but-not-running for 43 % of
// the run, and a waiter starved past 1 ms turns the mutex to hand-off mode,
// in which the lock is owned by a goroutine that is not scheduled. How long
// either lasts is the scheduler's choice, and differs from run to run.
func (r *Ring[T]) lockWindow() {
	for i := 0; i < lockSpins; i++ {
		if r.mu.TryLock() {
			return
		}
		for j := 0; j < 32; j++ {
			spinPause.Load()
		}
	}
	r.mu.Lock()
}

// SetWindowOwner implements Windower.
func (r *Ring[T]) SetWindowOwner(producer bool, o WindowOwner) {
	r.mu.Lock()
	if producer {
		r.prodOwner = o
	} else {
		r.consOwner = o
	}
	r.mu.Unlock()
}

// WindowPos implements Windower.
func (r *Ring[T]) WindowPos(producer bool) int {
	if producer {
		return int(r.wpub.Load())
	}
	return r.rpos
}

// windowLen clamps a requested window length to what the ring allows: at
// most half the capacity, and the contiguous run of avail slots at idx.
func (r *Ring[T]) windowLen(want, avail, idx int) int {
	return min(want, avail, len(r.vals)-idx, max(len(r.vals)/2, 1))
}

// WindowPush stores v, with no signal, in the open write window unless v
// would take its last slot; stored false sends the caller to PushWindowed.
// No lock and no clock: the slot belongs to the producer until commit. The
// cursor is published with an atomic store, which is what lets the consumer
// take the element over (pullLocked) should this producer stop short of a
// commit, and attn is read after it, which is what lets the consumer sleep:
// when attend comes back true the caller must call Attend before it does
// anything else. (The call is the caller's so that this function stays
// within the inlining budget; a scalar push is this function's body and
// nothing more.)
func (r *Ring[T]) WindowPush(v T) (stored, attend bool) {
	w := &r.ww
	if i := int(r.wpub.Load()); i+1 < len(w.vals) {
		w.vals[i] = v
		r.wpub.Store(int64(i + 1))
		return true, r.attn.Load() != 0
	}
	return false, false
}

// Attend is the producer's visit to the ring in the middle of a window,
// because attn is raised: a sleeping consumer is handed what the window
// holds, and on a closed ring the window is given up (the next push finds
// none open, takes the lock and returns ErrClosed).
func (r *Ring[T]) Attend() {
	r.lockWindow()
	defer r.mu.Unlock()
	if r.closed {
		r.ww = window[T]{}
		r.commitLocked()
		return
	}
	r.pullLocked()
}

// PushWindowed is the scalar push. With a window open it writes the next
// slot and commits if that was the last one or sig is a signal. Otherwise
// it takes the lock once, waits for space when block is set, and either
// opens a window of up to max slots with v in the first, or — at window
// length 1, on a best-effort ring, for a signal-carrying element, or while
// the consumer sleeps waiting for exactly this element — pushes v directly.
// committed is how many elements this call published; ok is false when
// block is unset and the ring is full, and with ErrClosed.
func (r *Ring[T]) PushWindowed(v T, sig Signal, max int, block bool) (committed int, ok bool, err error) {
	w := &r.ww
	if w.vals != nil {
		i := int(r.wpub.Load())
		w.vals[i], w.sigs[i] = v, sig
		r.wpub.Store(int64(i + 1))
		if sig == SigNone && i+1 < len(w.vals) {
			if r.attn.Load() != 0 {
				r.Attend()
			}
			return 0, true, nil
		}
		committed, err = r.commitWindow()
		return committed, err == nil, err
	}
	r.lockWindow()
	defer r.mu.Unlock()
	if r.closed || r.readOnly {
		return 0, false, ErrClosed
	}
	if r.n == len(r.vals) {
		if r.bestEffort {
			r.evictLocked(1)
			if r.n == len(r.vals) && block && sig == SigNone {
				// Head pinned by a signal-carrying element or a read view:
				// shed the incoming element instead (it is signal-free, so
				// nothing is lost but payload the policy already permits
				// losing).
				r.tel.Shed.Inc()
				return 0, true, nil
			}
		}
		if r.n == len(r.vals) {
			if !block {
				return 0, false, nil
			}
			if err := r.waitForSpaceLocked(1); err != nil {
				return 0, false, err
			}
		}
	}
	idx := r.index(r.n)
	if max > 1 && sig == SigNone && !r.bestEffort && !r.wviewOut && !r.rwait {
		if k := r.windowLen(max, len(r.vals)-r.n, idx); k > 1 {
			r.wviewOut, r.wviewN = true, k
			w.vals, w.sigs = r.vals[idx:idx+k], r.sigs[idx:idx+k]
			clearSignals(w.sigs)
			w.vals[0] = v
			r.wpub.Store(1)
			return 0, true, nil
		}
	}
	wasEmpty := r.n == 0
	r.vals[idx] = v
	r.setSigAt(idx, sig)
	r.n++
	r.tel.Pushes.Inc()
	r.tel.recordOcc(r.n)
	r.rwait = false // signalled: the pushes that follow may ride a window
	r.notEmpty.Signal()
	r.wokeNotEmpty(wasEmpty)
	return 1, true, nil
}

// CommitWindow implements Windower: what the write window holds that the
// consumer has not already pulled becomes buffered elements in one step —
// counters, occupancy sample, condition signal and wake hook once for all
// of them — and a resize the window deferred is applied. The count returned
// is everything the window delivered, pulled or committed.
func (r *Ring[T]) CommitWindow() int {
	n, _ := r.commitWindow()
	return n
}

// commitWindow is CommitWindow with the error a ring closed under the
// window reports (commitLocked).
func (r *Ring[T]) commitWindow() (int, error) {
	w := &r.ww
	if w.vals == nil {
		return 0, nil
	}
	*w = window[T]{}
	r.lockWindow()
	defer r.mu.Unlock()
	return r.commitLocked()
}

// commitLocked ends the write window, whose slice the producer has already
// let go of. On a ring that was closed under the window (by someone other
// than the producer, who retires before it closes) the slots nobody pulled
// are given up with ErrClosed, as a Push into a closed ring always was: they
// are counted nowhere, and n is what the consumer did take.
func (r *Ring[T]) commitLocked() (n int, err error) {
	n = int(r.wpub.Load())
	if r.closed {
		n, err = r.wpulled, ErrClosed
	} else {
		r.publishLocked(n - r.wpulled)
	}
	r.wpub.Store(0)
	r.wpulled = 0
	r.wviewOut = false
	r.applyDeferredLocked()
	return n, err
}

// publishLocked turns the next k written window slots into buffered
// elements.
func (r *Ring[T]) publishLocked(k int) {
	if k == 0 {
		return
	}
	wasEmpty := r.n == 0
	r.n += k
	r.tel.Pushes.Add(uint64(k))
	r.tel.recordOcc(r.n)
	r.rwait = false
	r.clearAttnLocked(attnReader)
	r.notEmpty.Broadcast()
	r.wokeNotEmpty(wasEmpty)
}

// pullLocked publishes, from the consumer's side, whatever the producer has
// written into its open window and not committed; it reports whether that
// was anything. The slots are safe to read: each was written before the
// atomic store of the cursor value that covers it. They sit at index(n)
// onwards, because that is where the window was opened and everything
// published since came out of it; the producer's own commit subtracts what
// was pulled.
func (r *Ring[T]) pullLocked() bool {
	k := int(r.wpub.Load()) - r.wpulled
	if k <= 0 {
		return false
	}
	r.wpulled += k
	r.publishLocked(k)
	return true
}

// WindowPop returns the next element of the open read window, with its
// signal, unless it is the last one; false sends the caller to PopWindowed.
func (r *Ring[T]) WindowPop() (v T, s Signal, ok bool) {
	w := &r.rw
	if i := r.rpos; i+1 < len(w.vals) {
		r.rpos = i + 1
		if w.sigs != nil {
			s = w.sigs[i]
		}
		return w.vals[i], s, true
	}
	return v, SigNone, false
}

// PopWindowed is the scalar pop. With a window open it reads the next
// element and releases the window if that was the last one. Otherwise it
// takes the lock once, waits for an element when block is set, and either
// opens a window over up to max buffered elements and returns the first, or
// — at window length 1 or on a best-effort ring — pops one element directly.
// released is how many elements this call removed from the ring; ok is
// false with a nil error only when block is unset and the ring is empty.
func (r *Ring[T]) PopWindowed(max int, block bool) (v T, s Signal, released int, ok bool, err error) {
	w := &r.rw
	if w.vals != nil {
		i := r.rpos
		v = w.vals[i]
		if w.sigs != nil {
			s = w.sigs[i]
		}
		r.rpos = i + 1
		if r.rpos == len(w.vals) {
			released = r.ReleaseWindow()
		}
		return v, s, released, true, nil
	}
	r.lockWindow()
	defer r.mu.Unlock()
	if r.emptyLocked() {
		if r.closed {
			return v, SigNone, 0, false, ErrClosed
		}
		if !block {
			return v, SigNone, 0, false, nil
		}
		if err := r.waitForItemsLocked(1); err != nil {
			return v, SigNone, 0, false, err
		}
	}
	v, s = r.vals[r.head], r.sigAt(r.head)
	if max > 1 && !r.bestEffort && !r.viewOut {
		if k := r.windowLen(max, r.n, r.head); k > 1 {
			r.viewOut, r.viewN = true, k
			w.vals = r.vals[r.head : r.head+k]
			if r.sigs != nil {
				w.sigs = r.sigs[r.head : r.head+k]
			}
			r.rpos = 1
			return v, s, 0, true, nil
		}
	}
	r.dropLocked(1)
	return v, s, 1, true, nil
}

// emptyLocked reports whether the consumer can obtain nothing: no buffered
// element and nothing to pull out of the producer's window.
func (r *Ring[T]) emptyLocked() bool {
	return r.n == 0 && !r.pullLocked()
}

// ReleaseWindow implements Windower: the read prefix of the read window
// leaves the ring in one step (the rest stays buffered), and a resize the
// window deferred is applied.
func (r *Ring[T]) ReleaseWindow() int {
	w := &r.rw
	if w.vals == nil {
		return 0
	}
	*w = window[T]{}
	n := r.rpos
	r.rpos = 0
	r.lockWindow()
	defer r.mu.Unlock()
	r.viewOut = false
	r.dropLocked(n)
	r.applyDeferredLocked()
	return n
}
