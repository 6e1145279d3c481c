package ringbuffer

// Port windows: the scalar path as an index into a borrowed run of storage.
//
// A window is a run of slots one end of the stream keeps across scalar
// operations: the producer's is a run of slots known to be free, the
// consumer's a run of elements known to be buffered, each read through a
// cursor only its own goroutine moves. What a Push or Pop would otherwise
// do per element is done once per window, without the lock: the producer's
// enter/exit pair, the Pushes or Pops count, the occupancy sample, and
// (in the port layer) the marker deposit.
//
// A push into a window is a slot store and a store of tail, followed by a
// load of rattn: the consumer sees each element at once, and a consumer
// that found the ring empty and armed it (Blocked, a failed try, a sleep)
// is woken by the first publish after. A pop out of a window is a slot
// load; its window is released (its elements leave the ring, head moves)
// when its last element is read and whenever its owner retires it. A write
// window ends when its last slot is written, when an element carries a
// signal, and whenever its owner retires it (CommitWindow).
//
// So an open write window always has a free slot and an open read window an
// unread element, and WindowPos is non-zero exactly while a window is open.
// An end about to sleep on this ring first has its owner retire every
// window it holds (waitForSpace, waitForItems), so no kernel sleeps on a
// port while a neighbour waits for what it is sitting on. A consumer that
// stops while it holds a read window keeps at most half the ring from the
// producer, which is back-pressure arriving early, not an element going
// missing.
//
// A window is at most half the ring, so both ends can hold one at once, and
// one contiguous segment of one store, so the cursor is a plain slice
// index. Window length 1 opens nothing: that is what Push and Pop are.
// Best-effort rings are never windowed (a held window would turn
// latest-wins eviction into shedding), nor are signal-carrying pushes.
//
// To the monitor a write window is a view without a hold time: a Resize
// that arrives while one is out waits for its end, at most one push away
// (the push sees attnResize and ends the window; ResizePending says so
// meanwhile). ViewHeldFor, Views and ViewHoldNs count explicit borrows
// only, so windows read no clock.
//
// Any other operation by the same end (PushN, PopN, Peek, views, Close)
// requires that end's window to be retired first; raft's port layer does so.

// WindowOwner is the kernel at one end of a stream. RetireAll commits
// every write window and releases every read window the kernel holds, on
// all of its streams; the ring calls it on the owner's own goroutine.
type WindowOwner interface {
	RetireAll()
}

// Windower is the element-type-agnostic window surface of Ring[T], through
// which the port layer retires windows and corrects lengths without knowing
// the element type.
type Windower interface {
	// SetWindowOwner names the kernel at the producing or consuming end.
	SetWindowOwner(producer bool, o WindowOwner)
	// CommitWindow retires the write window, returning how many elements
	// it delivered (0 when none was open). Producer only.
	CommitWindow() int
	// ReleaseWindow retires the read window, returning how many elements
	// that consumed (0 when none was open). Consumer only.
	ReleaseWindow() int
	// WindowPos returns the cursor of one end's window: elements written
	// and not yet committed (producer) or read and not yet released
	// (consumer); 0 when no window is open. Valid on that end's goroutine.
	WindowPos(producer bool) int
}

// window is one end's run of ring storage. The producer's cursor is tail
// (base is the sequence of vals[0]); the consumer's is pos.
type window[T any] struct {
	vals []T
	sigs []Signal // nil on the read side of a slice-backed ring
	base uint64
	pos  int
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
	if !producer {
		return r.rw.pos
	}
	if r.ww.vals == nil {
		return 0
	}
	return int(r.tail.Load() - r.ww.base)
}

// windowLen clamps a requested window length to what the ring allows: at
// most half the capacity, and the contiguous run of n slots at index i.
func windowLen(want, n, i, size int) int {
	return min(want, n, size-i, max(size/2, 1))
}

// WindowPush stores v, with no signal, in the open write window unless v
// would take its last slot; stored false sends the caller to PushWindowed.
// No lock and no clock: the slot belongs to the producer. When attend comes
// back true the caller must call Attend before it does anything else. (The
// call is the caller's so that this function stays within the inlining
// budget; a scalar push is this function's body and nothing more.)
func (r *Ring[T]) WindowPush(v T) (stored, attend bool) {
	w := &r.ww
	t := r.tail.Load()
	if i := int(t - w.base); i+1 < len(w.vals) {
		w.vals[i] = v
		r.tail.Store(t + 1)
		return true, r.rattn.Load() != 0
	}
	return false, false
}

// Attend is the producer's visit to the ring in the middle of a window,
// because rattn is raised: a consumer that found the ring empty is woken,
// and on a closed ring, or one whose resize waits, the window is ended (the
// next push opens none and returns ErrClosed, or opens one in the new
// store). It returns what an ended window delivered.
func (r *Ring[T]) Attend() int {
	if r.rattn.Load()&(attnClosed|attnResize) != 0 {
		return r.CommitWindow()
	}
	r.mu.Lock()
	r.attendLocked()
	r.mu.Unlock()
	return 0
}

// PushWindowed is the scalar push. With a window open it writes the next
// slot and commits if that was the last one or sig is a signal. Otherwise
// it waits for space when block is set and either opens a window of up to
// want slots with v in the first, or — at window length 1, on a best-effort
// ring, or for a signal-carrying element — pushes v alone. committed is
// how many elements this call accounted for; ok is false when block is
// unset and the ring is full, and with ErrClosed.
func (r *Ring[T]) PushWindowed(v T, sig Signal, want int, block bool) (committed int, ok bool, err error) {
	if w := &r.ww; w.vals != nil {
		if r.rattn.Load()&attnClosed != 0 {
			return r.CommitWindow(), false, ErrClosed
		}
		t := r.tail.Load()
		i := int(t - w.base)
		w.vals[i], w.sigs[i] = v, sig
		r.tail.Store(t + 1)
		if sig == SigNone && i+1 < len(w.vals) {
			if r.rattn.Load() != 0 {
				return r.Attend(), true, nil
			}
			return 0, true, nil
		}
		return r.CommitWindow(), true, nil
	}
	if r.bestEffort.Load() {
		want = 1
	}
	st, t, f, shed, err := r.room(r.enter(), want, block, block && sig == SigNone)
	if f == 0 {
		if shed {
			// Head pinned by a signal-carrying element or a read view: shed
			// the incoming element instead (it is signal-free, so nothing
			// is lost but payload the policy already permits losing).
			r.tel.Shed.Inc()
		}
		r.exit()
		return 0, shed, err
	}
	i := st.at(t)
	if k := windowLen(want, f, i, st.size); k > 1 && sig == SigNone && r.wviewN == 0 {
		w := &r.ww
		w.vals, w.sigs, w.base = st.vals[i:i+k], st.sigs[i:i+k], t
		clear(w.sigs)
		w.vals[0] = v
		r.tail.Store(t + 1)
		if r.rattn.Load() != 0 {
			return r.Attend(), true, nil
		}
		return 0, true, nil
	}
	st.vals[i], st.sigs[i] = v, sig
	r.tail.Store(t + 1)
	r.account(1)
	r.exit()
	return 1, true, nil
}

// CommitWindow implements Windower: the write window ends — its elements
// were published as they were written, so what is left is to count them,
// sample the occupancy once for all of them, and let a waiting resize in.
func (r *Ring[T]) CommitWindow() int {
	w := &r.ww
	if w.vals == nil {
		return 0
	}
	n := int(r.tail.Load() - w.base)
	*w = window[T]{}
	r.account(n)
	r.exit()
	return n
}

// WindowPop returns the next element of the open read window, with its
// signal, unless it is the last one; false sends the caller to PopWindowed.
func (r *Ring[T]) WindowPop() (v T, s Signal, ok bool) {
	w := &r.rw
	if i := w.pos; i+1 < len(w.vals) {
		w.pos = i + 1
		if w.sigs != nil {
			s = w.sigs[i]
		}
		return w.vals[i], s, true
	}
	return v, SigNone, false
}

// PopWindowed is the scalar pop. With a window open it reads the next
// element and releases the window if that was the last one. Otherwise it
// waits for an element when block is set and either opens a window over up
// to want buffered elements and returns the first, or — at window length 1
// or on a best-effort ring — pops one element alone. released is how many
// elements this call removed from the ring; ok is false with a nil error
// only when block is unset and the ring is empty.
func (r *Ring[T]) PopWindowed(want int, block bool) (v T, s Signal, released int, ok bool, err error) {
	if w := &r.rw; w.vals != nil {
		i := w.pos
		v = w.vals[i]
		if w.sigs != nil {
			s = w.sigs[i]
		}
		w.pos = i + 1
		if w.pos == len(w.vals) {
			released = r.ReleaseWindow()
		}
		return v, s, released, true, nil
	}
	mode := waitTry
	if block {
		mode = waitBlock
	}
	locked := r.lockBE()
	if locked {
		defer r.mu.Unlock()
		want = 1
	}
	st, h, n, err := r.take(want, mode, locked)
	if n == 0 {
		return v, SigNone, 0, false, err
	}
	i := st.at(h)
	v, s = st.vals[i], st.sig(i)
	if k := windowLen(want, n, i, st.size); k > 1 && r.viewN == 0 {
		w := &r.rw
		w.vals = st.vals[i : i+k]
		if st.sigs != nil {
			w.sigs = st.sigs[i : i+k]
		}
		w.pos = 1
		return v, s, 0, true, nil
	}
	r.drop(st, h, 1, locked)
	return v, s, 1, true, nil
}

// ReleaseWindow implements Windower: the read prefix of the read window
// leaves the ring in one step; the rest stays buffered.
func (r *Ring[T]) ReleaseWindow() int {
	w := &r.rw
	if w.vals == nil {
		return 0
	}
	n := w.pos
	*w = window[T]{}
	r.drop(r.cst, r.head.Load(), n, false)
	return n
}
