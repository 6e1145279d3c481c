package ringbuffer

// Wake identifies one queue-state transition of interest to a parked
// scheduler: the transitions are exactly the edges of the cooperative
// readiness predicate (inputs non-empty or closed, outputs non-full or
// closed), so a kernel parked on a Stall needs to be re-queued on no other
// occasion. A transition is reported for an end that found the queue empty
// or full and armed it (Queue.Blocked, a failed try, a sleep), on the
// other end's first publish or release after.
type Wake uint8

const (
	// WakeNotEmpty fires when a push follows the consumer's finding the
	// queue empty: the consumer, if parked, can make progress again.
	WakeNotEmpty Wake = iota
	// WakeNotFull fires when a pop follows the producer's finding the queue
	// full, and on a capacity grow: the producer, if parked, can push again.
	WakeNotFull
	// WakeClosed fires on Close: both endpoints must re-run so they can
	// observe ErrClosed and stop (deadlock aborts close every queue, so a
	// parked actor is never stranded by teardown).
	WakeClosed
)

// String returns the transition's stable name.
func (w Wake) String() string {
	switch w {
	case WakeNotEmpty:
		return "not-empty"
	case WakeNotFull:
		return "not-full"
	case WakeClosed:
		return "closed"
	}
	return "wake(?)"
}

// WakeHooker is implemented by queues that can notify a scheduler of
// readiness transitions. The hook contract is strict, because it runs on
// the other end's commit, under the queue's lock:
//
//   - it must not block,
//   - it must not call back into any queue, and
//   - it must tolerate spurious invocations (a rare extra edge must be
//     harmless; a rare missed one is rescued by the scheduler's watchdog).
//
// Passing nil detaches the hook. Installation is not synchronized with
// in-flight operations beyond the queue's own ordering: install before the
// endpoints start (or accept that a transition during the install race may
// be missed — the watchdog covers that too).
// WakePending reports whether a wake for an armed end is under way: the
// other end made its transition and the hook has yet to return.
type WakeHooker interface {
	SetWakeHook(WakeHook)
	WakePending(producer bool) bool
}

// WakeHook receives a queue's readiness transitions. It is an interface, not
// a func, so a scheduler can hook every link of a graph from one slab of
// per-link records without a closure for each.
type WakeHook interface {
	OnWake(Wake)
}

// WakeFunc adapts a function to a WakeHook.
type WakeFunc func(Wake)

// OnWake calls f(w).
func (f WakeFunc) OnWake(w Wake) { f(w) }
