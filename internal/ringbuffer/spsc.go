package ringbuffer

import (
	"runtime"
	"sync/atomic"
	"time"
)

// SPSC is a lock-free single-producer single-consumer ring. It trades
// the mutex of Ring for a pure atomic fast path: one goroutine may
// push, one may pop, with no lock on either side. Capacity changes go
// through the epoch-swap protocol in spsc_resize.go — the monitor
// publishes a new backing ring, the producer installs it at its next
// push, and the consumer drains the old epoch before following — so
// the monitor's §4.1 resize rules apply to lock-free links too, with
// zero added synchronization on the hot path (one extra uncontended
// atomic load per operation).
//
// The implementation uses monotonically increasing head/tail sequence
// counters (never wrapped), masked into a power-of-two buffer per
// epoch — the classic Lamport queue with cache-line padding between
// the producer and consumer fields to avoid false sharing. Because the
// sequences are global across epochs, Len and all Telemetry counters
// (Flow, OccStats, block times) stay coherent across a swap.
type SPSC[T any] struct {
	_pad0 [64]byte
	tail  atomic.Uint64 // next write sequence (producer-owned)
	prod  *spscSeg[T]   // epoch being written (producer-owned)
	// Write-view state (producer-owned, plain: see view.go). wviewT is the
	// tail sequence the outstanding write view was acquired at.
	wviewOut bool
	wviewN   int
	wviewT   uint64

	_pad1 [64]byte
	head  atomic.Uint64 // next read sequence (consumer-owned)
	cons  *spscSeg[T]   // epoch being read (consumer-owned)

	// Read-view state (consumer-owned, plain). viewH is the head sequence
	// the outstanding read view was acquired at.
	viewOut bool
	viewN   int
	viewH   uint64

	_pad2 [64]byte

	// active is the newest epoch, for third-party observers (Cap);
	// pending is a monitor-published swap request awaiting the
	// producer (see spsc_resize.go).
	active  atomic.Pointer[spscSeg[T]]
	pending atomic.Pointer[spscSeg[T]]

	closed atomic.Bool
	// bestEffort selects the overflow policy: a full queue sheds incoming
	// signal-free elements (counted in Telemetry.Shed) instead of
	// spinning the producer. Unlike the mutex ring, the SPSC queue cannot
	// evict the oldest element — the head sequence is consumer-owned (plain
	// release store, no CAS) and stealing it from the producer side would
	// race a consumer mid-copy — so best effort here is drop-newest rather
	// than latest-wins. Both sides of the asymmetry satisfy the policy's
	// contract: the producer never blocks and every loss is counted.
	bestEffort atomic.Bool
	// wake, when non-nil, is the scheduler hook for readiness transitions.
	// The transition detection here is conservative (endpoints race the
	// opposing side's sequence counter): the post-publish re-load pattern in
	// notifyPushed/notifyPopped catches every transition that a concurrently
	// parking endpoint could have decided on, and the scheduler's watchdog
	// rescues the pathological remainder. See WakeHooker.
	wake atomic.Pointer[func(Wake)]
	tel  Telemetry

	writerBlockSince atomic.Int64
	readerBlockSince atomic.Int64

	// viewSince / wviewSince hold the UnixNano a read/write view was
	// acquired at (0 when none is out), read lock-free by the monitor's
	// ViewHeldFor probe.
	viewSince  atomic.Int64
	wviewSince atomic.Int64
}

// NewSPSC returns a lock-free ring whose capacity is capacity rounded up to
// a power of two (minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	q := &SPSC[T]{}
	seg := newSeg[T](capacity, 0)
	q.prod = seg
	q.cons = seg
	q.active.Store(seg)
	return q
}

// Len returns the number of buffered elements. A third party (the monitor)
// calls it concurrently with both endpoints, so the load order matters: head
// must be read before tail. Reading tail first can sandwich a consumer
// head-advance between the two loads and observe head > tail, which as a
// uint64 difference is a huge bogus length. With head read first the
// relation head_before <= head_now <= tail_now keeps the difference
// non-negative; the clamp guards the theoretical torn-interleaving remnant.
// A drain-and-refill sandwiched between the two loads is the mirror hazard:
// tail_now - head_before can exceed the ring size. Re-reading head after
// tail detects it seqlock-style — an unchanged head proves the difference
// was a real instantaneous occupancy (every push that set tail saw a head
// no newer than the one observed, so the producer's own full-check bounds
// it). A few retries always suffice in practice; the bounded fallback
// returns the non-negative estimate rather than spinning against a
// pathological consumer. (During an epoch-swap shrink the true occupancy
// legitimately exceeds Cap — the old epoch's backlog does not fit the new
// ring — which is why the detector re-reads instead of clamping.)
func (q *SPSC[T]) Len() int {
	var h, t uint64
	for i := 0; i < 16; i++ {
		h = q.head.Load()
		t = q.tail.Load()
		if q.head.Load() == h {
			break
		}
	}
	if t < h {
		return 0
	}
	return int(t - h)
}

// Cap returns the capacity of the newest epoch.
func (q *SPSC[T]) Cap() int { return len(q.active.Load().vals) }

// Kind identifies the queue implementation for reports and telemetry.
func (q *SPSC[T]) Kind() string { return "spsc" }

// SetBestEffort switches the queue's overflow policy to drop-newest: a
// full queue sheds incoming signal-free elements, counted in
// Telemetry.Shed, instead of spinning the producer. Signal-carrying
// elements (EOF, termination) always take the blocking path. See the
// bestEffort field for why this side is drop-newest while the mutex ring
// is latest-wins.
func (q *SPSC[T]) SetBestEffort(on bool) { q.bestEffort.Store(on) }

// BestEffort reports whether the queue runs the drop-newest overflow
// policy.
func (q *SPSC[T]) BestEffort() bool { return q.bestEffort.Load() }

// Close marks the producer finished. Idempotent.
func (q *SPSC[T]) Close() {
	q.closed.Store(true)
	if p := q.wake.Load(); p != nil {
		(*p)(WakeClosed)
	}
}

// SetWakeHook installs (or, with nil, detaches) the scheduler wake hook.
// See WakeHooker for the contract.
func (q *SPSC[T]) SetWakeHook(fn func(Wake)) {
	if fn == nil {
		q.wake.Store(nil)
		return
	}
	q.wake.Store(&fn)
}

// notifyPushed fires WakeNotEmpty after a tail publish at sequence oldTail.
// The head is re-loaded AFTER the tail store: if the consumer had drained
// everything visible before this push (head == oldTail) it may be parked —
// or deciding to park — and the hook's state machine covers both. If
// head < oldTail there were unconsumed elements when the batch published,
// so the consumer cannot have parked on an empty queue whose emptiness
// postdates them.
func (q *SPSC[T]) notifyPushed(oldTail uint64) {
	if p := q.wake.Load(); p != nil && q.head.Load() == oldTail {
		(*p)(WakeNotEmpty)
	}
}

// notifyPopped fires WakeNotFull after a head publish that started from
// sequence oldHead. The tail is re-loaded AFTER the head store: if the
// producer filled the ring to capacity relative to the pre-pop head it may
// be parked on the full queue; the conservative >= catches the epoch-swap
// backlog case too (occupancy beyond the active capacity).
func (q *SPSC[T]) notifyPopped(oldHead uint64) {
	p := q.wake.Load()
	if p == nil {
		return
	}
	if q.tail.Load()-oldHead >= uint64(len(q.active.Load().vals)) {
		(*p)(WakeNotFull)
	}
}

// Closed reports whether the producer closed the queue.
func (q *SPSC[T]) Closed() bool { return q.closed.Load() }

// TryPush appends v without blocking; it reports whether the element was
// accepted and returns ErrClosed on a closed queue. A pending epoch swap
// is installed first, so a full old ring never wedges the producer once
// the monitor has granted more space.
func (q *SPSC[T]) TryPush(v T, sig Signal) (bool, error) {
	if q.closed.Load() {
		return false, ErrClosed
	}
	t := q.tail.Load()
	if q.pending.Load() != nil {
		q.install(t)
	}
	s := q.prod
	h := q.head.Load()
	if s.freeAt(t, h) == 0 {
		return false, nil // full
	}
	i := (t - s.base) & s.mask
	s.vals[i] = v
	s.sigs[i] = sig
	q.tail.Store(t + 1) // release: publishes the slot
	q.tel.Pushes.Inc()
	q.tel.recordOcc(int(t + 1 - h))
	q.notifyPushed(t)
	return true, nil
}

// Push appends v, spinning (with escalating back-off) while the queue is
// full. It returns ErrClosed if the queue is closed.
func (q *SPSC[T]) Push(v T, sig Signal) error {
	var spins int
	var blockedAt int64
	for {
		ok, err := q.TryPush(v, sig)
		if err != nil {
			q.clearWriterBlock(blockedAt)
			return err
		}
		if ok {
			q.clearWriterBlock(blockedAt)
			return nil
		}
		if q.bestEffort.Load() && sig == SigNone {
			q.clearWriterBlock(blockedAt)
			q.tel.Shed.Inc()
			return nil
		}
		if blockedAt == 0 {
			blockedAt = nowNanos()
			q.writerBlockSince.Store(blockedAt)
		}
		backoff(&spins, &q.tel)
	}
}

// PushN appends all of vs with their parallel signals in bulk: the batch is
// copied into the free region with at most two copies (wrap-around split)
// and published with a single atomic tail store, instead of one store per
// element. sigs may be nil (every element carries SigNone) or must have
// len(vs) entries. PushN spins (escalating back-off) while the queue is full
// and returns ErrClosed on a closed queue. A batch that meets an epoch swap
// is split at the boundary: the remainder of the old ring is filled, the
// swap installs, and the rest of the batch lands in the new ring.
func (q *SPSC[T]) PushN(vs []T, sigs []Signal) error {
	if sigs != nil && len(sigs) != len(vs) {
		panic("ringbuffer: PushN signal slice length mismatch")
	}
	var spins int
	var blockedAt int64
	for len(vs) > 0 {
		if q.closed.Load() {
			q.clearWriterBlock(blockedAt)
			return ErrClosed
		}
		t := q.tail.Load()
		if q.pending.Load() != nil {
			q.install(t)
		}
		s := q.prod
		h := q.head.Load()
		free := s.freeAt(t, h)
		if free == 0 {
			if q.bestEffort.Load() {
				// Shed the incoming signal-free prefix; a signal-carrying
				// element falls through to the blocking spin so control
				// flow (EOF) is never lost.
				shed := 0
				for shed < len(vs) && (sigs == nil || sigs[shed] == SigNone) {
					shed++
				}
				if shed > 0 {
					q.tel.Shed.Add(uint64(shed))
					vs = vs[shed:]
					if sigs != nil {
						sigs = sigs[shed:]
					}
					continue
				}
			}
			if blockedAt == 0 {
				blockedAt = nowNanos()
				q.writerBlockSince.Store(blockedAt)
			}
			backoff(&spins, &q.tel)
			continue
		}
		k := min(free, len(vs))
		i := int((t - s.base) & s.mask)
		first := min(k, len(s.vals)-i)
		copy(s.vals[i:], vs[:first])
		copy(s.vals, vs[first:k])
		if sigs == nil {
			clearSignals(s.sigs[i : i+first])
			clearSignals(s.sigs[:k-first])
		} else {
			copy(s.sigs[i:], sigs[:first])
			copy(s.sigs, sigs[first:k])
		}
		q.tail.Store(t + uint64(k)) // release: publishes the whole batch
		q.tel.Pushes.Add(uint64(k))
		q.tel.recordOcc(int(t + uint64(k) - h))
		q.notifyPushed(t)
		vs = vs[k:]
		if sigs != nil {
			sigs = sigs[k:]
		}
		spins = 0
	}
	q.clearWriterBlock(blockedAt)
	return nil
}

// PopN removes up to len(dst) elements in bulk, spinning until at least one
// is available: the batch is copied out with at most two copies and consumed
// with a single atomic head store. When sigs is non-nil its first n entries
// receive the elements' synchronized signals. Once the queue is closed and
// drained PopN returns (0, ErrClosed).
func (q *SPSC[T]) PopN(dst []T, sigs []Signal) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	var spins int
	var blockedAt int64
	for {
		n, err := q.DrainTo(dst, sigs)
		if n > 0 || err != nil {
			q.clearReaderBlock(blockedAt)
			return n, err
		}
		if blockedAt == 0 {
			blockedAt = nowNanos()
			q.readerBlockSince.Store(blockedAt)
		}
		backoff(&spins, &q.tel)
	}
}

// DrainTo is the non-blocking PopN: it removes whatever is buffered, up to
// len(dst) elements, returning 0 with a nil error when the queue is empty
// but open and (0, ErrClosed) once it is closed and drained. A drain that
// crosses an epoch boundary copies each epoch's contribution separately
// (the batch splits at the seal) and still publishes one head advance for
// the whole batch.
func (q *SPSC[T]) DrainTo(dst []T, sigs []Signal) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	h := q.head.Load()
	h0 := h
	t := q.tail.Load()
	if t == h {
		if !q.closed.Load() {
			return 0, nil
		}
		// Re-check emptiness after observing closed: the producer may
		// have pushed between our tail load and its Close.
		t = q.tail.Load()
		if t == h {
			return 0, ErrClosed
		}
	}
	total := 0
	for total < len(dst) && h < t {
		s := q.segFor(h)
		limit := t
		if sealed := s.sealedAt.Load(); sealed < limit {
			limit = sealed // this epoch ends before the tail
		}
		n := min(int(limit-h), len(dst)-total)
		i := int((h - s.base) & s.mask)
		first := min(n, len(s.vals)-i)
		copy(dst[total:], s.vals[i:i+first])
		copy(dst[total+first:total+n], s.vals)
		if sigs != nil {
			copy(sigs[total:], s.sigs[i:i+first])
			copy(sigs[total+first:total+n], s.sigs)
		}
		// Release payload references so the GC can reclaim popped elements.
		var zero T
		for j := 0; j < first; j++ {
			s.vals[i+j] = zero
		}
		for j := 0; j < n-first; j++ {
			s.vals[j] = zero
		}
		h += uint64(n)
		total += n
	}
	q.head.Store(h) // release: consumes the whole batch
	q.tel.Pops.Add(uint64(total))
	if total > 0 {
		q.notifyPopped(h0)
	}
	return total, nil
}

func (q *SPSC[T]) clearWriterBlock(blockedAt int64) {
	if blockedAt != 0 {
		q.writerBlockSince.Store(0)
		q.tel.WriteBlockNs.Add(uint64(nowNanos() - blockedAt))
	}
}

// TryPop removes the oldest element without blocking. ok reports whether an
// element was returned; err is ErrClosed once the queue is closed and empty.
func (q *SPSC[T]) TryPop() (v T, s Signal, ok bool, err error) {
	h := q.head.Load()
	if h == q.tail.Load() {
		if q.closed.Load() {
			// Re-check emptiness after observing closed: the producer may
			// have pushed between our tail load and its Close.
			if h == q.tail.Load() {
				return v, SigNone, false, ErrClosed
			}
		} else {
			return v, SigNone, false, nil
		}
	}
	seg := q.segFor(h)
	i := (h - seg.base) & seg.mask
	v = seg.vals[i]
	s = seg.sigs[i]
	var zero T
	seg.vals[i] = zero
	q.head.Store(h + 1)
	q.tel.Pops.Inc()
	q.notifyPopped(h)
	return v, s, true, nil
}

// Pop removes the oldest element, spinning while the queue is empty. Once
// the queue is closed and drained it returns ErrClosed.
func (q *SPSC[T]) Pop() (T, Signal, error) {
	var spins int
	var blockedAt int64
	for {
		v, s, ok, err := q.TryPop()
		if err != nil {
			q.clearReaderBlock(blockedAt)
			var zero T
			return zero, SigNone, err
		}
		if ok {
			q.clearReaderBlock(blockedAt)
			return v, s, nil
		}
		if blockedAt == 0 {
			blockedAt = nowNanos()
			q.readerBlockSince.Store(blockedAt)
		}
		backoff(&spins, &q.tel)
	}
}

func (q *SPSC[T]) clearReaderBlock(blockedAt int64) {
	if blockedAt != 0 {
		q.readerBlockSince.Store(0)
		q.tel.ReadBlockNs.Add(uint64(nowNanos() - blockedAt))
	}
}

// WriterBlockedFor returns how long the producer has been spinning on a
// full queue, or zero.
func (q *SPSC[T]) WriterBlockedFor() time.Duration {
	since := q.writerBlockSince.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(nowNanos() - since)
}

// ReaderStarvedFor returns how long the consumer has been spinning on an
// empty queue, or zero.
func (q *SPSC[T]) ReaderStarvedFor() time.Duration {
	since := q.readerBlockSince.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(nowNanos() - since)
}

// PendingDemand always returns 0: SPSC consumers cannot request windows.
func (q *SPSC[T]) PendingDemand() int { return 0 }

// Telemetry returns the queue's performance counters.
func (q *SPSC[T]) Telemetry() *Telemetry { return &q.tel }

// BackoffConfig tunes the spin-escalation policy a blocked SPSC endpoint
// follows: SpinLimit pure busy-spins, then Gosched yields until YieldLimit
// total iterations, then timed sleeps of Sleep each. The escalation
// transitions (spin→yield and yield→sleep) are counted in the queue's
// Telemetry so the contention a link suffers is directly observable.
type BackoffConfig struct {
	SpinLimit  int
	YieldLimit int
	Sleep      time.Duration
}

// DefaultBackoff is the escalation used unless SetBackoff overrides it.
var DefaultBackoff = BackoffConfig{SpinLimit: 64, YieldLimit: 256, Sleep: 10 * time.Microsecond}

// backoffCfg holds the active policy; read lock-free on the spin path.
var backoffCfg atomic.Pointer[BackoffConfig]

// SetBackoff installs a new escalation policy for every SPSC queue in the
// process (non-positive fields fall back to DefaultBackoff's values) and
// returns the previous policy. Intended for experiments and tuning, not the
// hot path.
func SetBackoff(cfg BackoffConfig) BackoffConfig {
	prev := loadBackoff()
	if cfg.SpinLimit <= 0 {
		cfg.SpinLimit = DefaultBackoff.SpinLimit
	}
	if cfg.YieldLimit <= cfg.SpinLimit {
		cfg.YieldLimit = cfg.SpinLimit + (DefaultBackoff.YieldLimit - DefaultBackoff.SpinLimit)
	}
	if cfg.Sleep <= 0 {
		cfg.Sleep = DefaultBackoff.Sleep
	}
	backoffCfg.Store(&cfg)
	return prev
}

// loadBackoff returns the active escalation policy.
func loadBackoff() BackoffConfig {
	if p := backoffCfg.Load(); p != nil {
		return *p
	}
	return DefaultBackoff
}

// backoff escalates from busy spinning to Gosched to short sleeps so a
// blocked side does not monopolize a core indefinitely, recording each tier
// transition in the queue's telemetry.
func backoff(spins *int, tel *Telemetry) {
	cfg := loadBackoff()
	*spins++
	switch {
	case *spins < cfg.SpinLimit:
		// busy spin
	case *spins < cfg.YieldLimit:
		if *spins == cfg.SpinLimit {
			tel.SpinYields.Inc()
		}
		runtime.Gosched()
	default:
		if *spins == cfg.YieldLimit {
			tel.SpinSleeps.Inc()
		}
		time.Sleep(cfg.Sleep)
	}
}

var _ Queue = (*SPSC[int])(nil)
