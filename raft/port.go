package raft

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"

	"raftlib/internal/core"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

// Direction distinguishes input from output ports.
type Direction int

// Port directions.
const (
	// In marks a port that consumes a stream.
	In Direction = iota
	// Out marks a port that produces a stream.
	Out
)

// String returns "in" or "out".
func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Port is one named, typed stream endpoint on a kernel. Ports are declared
// with AddInput / AddOutput in the kernel's constructor and accessed from
// Run via the generic stream operations (Pop, Push, Peek, ...).
type Port struct {
	name  string
	dir   Direction
	owner *KernelBase

	// ops is the port's element type: it allocates the stream's ring for a
	// link whose producer has this element type, and moves frames between
	// two rings of it.
	ops elemOps

	// q is the stream's ring, a *ringbuffer.Ring[T], which the typed
	// operations assert. The port window lives in the ring — the stream
	// end — not here: several Port values may be bound to one end (a
	// KernelGroup's members).
	q     ringbuffer.Queue
	async *asyncCell
	link  *Link
	batch *core.BatchControl

	// lane is the link's latency-marker mailbox, shared by both endpoint
	// ports (like batch above); nil when markers are off, which keeps the
	// disabled cost of every port operation to one pointer check.
	lane *trace.MarkerLane
	// stampEvery > 0 makes this (source-kernel output) port an ingest
	// point: one marker is stamped per stampEvery pushed elements, labeled
	// stampTenant and the owner's name. stampLeft is the countdown; all
	// three are touched only by the producing goroutine.
	stampEvery  uint32
	stampLeft   uint32
	stampTenant string

	// pending, when non-nil, is the replacement binding a graph-rewrite
	// transaction installed before sealing the current stream. The owning
	// kernel applies it itself: when a consuming operation reports the old
	// stream closed AND drained, the port swaps bindings and retries, so
	// the kernel never observes the splice as EOF. Installed by the
	// rewriter (before the seal, so the ErrClosed wake-up must find it);
	// consumed on the kernel's own goroutine.
	pending atomic.Pointer[pendingRebind]
}

// pendingRebind is a staged port binding: the new stream a consumer port
// migrates to once its sealed predecessor drains.
type pendingRebind struct {
	q     ringbuffer.Queue
	async *asyncCell
	link  *Link
	batch *core.BatchControl
	lane  *trace.MarkerLane
	// applied is closed once the owning kernel has swapped to this
	// binding; the rewriter's commit waits on it so "Commit returned"
	// means the new structure carries the traffic.
	applied chan struct{}
}

// installPending stages a replacement binding on a continuing consumer
// port. Must be called before the current stream is sealed.
func (p *Port) installPending(b *pendingRebind) { p.pending.Store(b) }

// migrateOnClosed is the consumer side of the epoch-seal handoff: called
// with a port operation's error on the owning kernel's goroutine, it
// reports whether the port just swapped to a staged replacement binding
// (in which case the operation must retry against the new stream). The
// swap happens only once the sealed stream is fully drained, so FIFO
// order, signals and latency markers are preserved across the splice.
func (p *Port) migrateOnClosed(err error) bool {
	nb := p.pending.Load()
	if nb == nil || !errors.Is(err, ringbuffer.ErrClosed) {
		return false
	}
	if p.Len() != 0 {
		return false // sealed but not drained; keep consuming
	}
	if !p.pending.CompareAndSwap(nb, nil) {
		return false
	}
	p.bind(nb.q, nb.async)
	p.link, p.batch, p.lane = nb.link, nb.batch, nb.lane
	close(nb.applied)
	return true
}

// Name returns the port's name.
func (p *Port) Name() string { return p.name }

// Dir returns the port's direction.
func (p *Port) Dir() Direction { return p.dir }

// Type returns the element type carried by the port.
func (p *Port) Type() reflect.Type { return p.ops.elem() }

// Bound reports whether the port has been connected by Map.Link.
func (p *Port) Bound() bool { return p.link != nil }

// Queue returns the untyped view of the port's stream, or nil before Exe
// allocates it.
func (p *Port) Queue() ringbuffer.Queue { return p.q }

// Close closes the stream attached to the port. Producers call it (usually
// indirectly, via the runtime, which closes all output streams when a
// kernel stops) to deliver EOF downstream.
func (p *Port) Close() {
	if p.q != nil {
		p.retireWindow() // what was pushed before Close is delivered before EOF
		p.q.Close()
	}
}

// Closed reports whether the attached stream has been closed.
func (p *Port) Closed() bool { return p.q != nil && p.q.Closed() }

// Len returns the number of buffered elements in the attached stream:
// everything Push has accepted (whether or not the port window holding it
// has been committed yet) that Pop has not returned. The second half is the
// port's own knowledge — the stream still counts elements a read window has
// handed out and not released — so call Len on an input port from the
// kernel that owns it.
func (p *Port) Len() int {
	if p.q == nil {
		return 0
	}
	n := p.q.Len()
	if p.dir == In {
		n -= p.q.WindowPos(false)
	}
	return n
}

// String implements fmt.Stringer.
func (p *Port) String() string {
	owner := "?"
	if p.owner != nil {
		owner = p.owner.Name()
	}
	return fmt.Sprintf("%s.%s(%s %s)", owner, p.name, p.dir, p.Type())
}

// bind attaches an allocated queue and async mailbox to the port.
func (p *Port) bind(q ringbuffer.Queue, async *asyncCell) {
	p.q = q
	p.async = async
	if p.owner != nil {
		q.SetWindowOwner(p.dir == Out, (*windowOwner)(p.owner))
	}
}

// share binds p to the stream end src is bound to without claiming it: a
// KernelGroup's members read and write the group's streams — one port
// window per end, whichever member is running — and the group, which is the
// actor, stays the end's owner. The link's batch control comes along so that
// a member sizes windows as the group would (1 on an AsLowLatency link).
func (p *Port) share(src *Port) {
	p.q, p.async, p.batch = src.q, src.async, src.batch
}

// windowMax is the port-window length a scalar operation asks the stream
// for: the link's batch size when it has one — a pin (AsLowLatency pins 1,
// which is one commit per element) or the batcher's decision — and
// core.MaxWindow otherwise. The ring caps it at half its capacity.
func (p *Port) windowMax() int {
	if n := p.batch.Get(); n > 0 {
		return n
	}
	return core.MaxWindow
}

// retireWindow retires the port's own window: an output port commits what
// was pushed (and lets the markers that were waiting for those elements
// go), an input port releases what was popped.
func (p *Port) retireWindow() {
	if p.q == nil {
		return
	}
	if p.dir == Out {
		if n := p.q.CommitWindow(); n > 0 {
			p.markPush(n)
		}
	} else if p.q.ReleaseWindow() > 0 {
		p.markPop()
	}
}

// BatchHint returns the adaptive batcher's chosen transfer size for the
// stream attached to this port, or def when the batcher has made no decision
// (or the port is unbound). Batch-aware kernels and adapters call it per
// invocation; it is one lock-free load.
func (p *Port) BatchHint(def int) int {
	if n := p.batch.Get(); n > 0 {
		return n
	}
	return def
}

func (p *Port) mustBeBound() {
	if p.q == nil {
		panic(misuse(ErrPortUnbound, "port %s used before Map.Exe allocated its stream", p))
	}
}

func typeMismatchPanic[T any](p *Port) error {
	var zero T
	return misuse(ErrTypeMismatch, "port %s accessed with element type %T", p, zero)
}

// ringOf returns the port's ring, panicking with a descriptive message on an
// unbound port or an element-type mismatch (a programming error that
// link-time type checking cannot see because the access type parameter is
// chosen at the call site). The assertion compares two type pointers, and
// the binding is read afresh each call, so a port rebound by a graph
// rewrite needs no invalidation.
func ringOf[T any](p *Port) *ringbuffer.Ring[T] {
	r, ok := p.q.(*ringbuffer.Ring[T])
	if !ok {
		p.mustBeBound()
		panic(typeMismatchPanic[T](p))
	}
	return r
}

// retired is ringOf with the port's own window retired, for operations that
// address the ring other than element by element (bulk, peek, views): they
// land behind every element the scalar path already accepted or handed out,
// so FIFO order holds across any mix of the two.
func retired[T any](p *Port) *ringbuffer.Ring[T] {
	r := ringOf[T](p)
	if r.WindowPos(p.dir == Out) != 0 {
		p.retireWindow()
	}
	return r
}

// Element-wise access. A scalar operation is an index into the stream end's
// port window (ringbuffer/window.go): the inlined first branch below takes no
// lock and reads no clock (a push publishes the ring's tail with one atomic
// store), and the once-per-window work happens in popSlow/pushSlow, which is
// also where markers are picked up and deposited.

// Pop removes and returns the next element from an input port, blocking
// until data arrives. It returns ErrClosed when the stream is closed and
// drained — the paper's pop_s, minus the destructor (Go returns the value
// directly).
func Pop[T any](p *Port) (T, error) {
	if r, ok := p.q.(*ringbuffer.Ring[T]); ok {
		if v, _, ok := r.WindowPop(); ok {
			return v, nil
		}
	}
	v, _, _, err := popSlow[T](p, true)
	return v, err
}

// PopSig is Pop plus the synchronized signal delivered with the element.
func PopSig[T any](p *Port) (T, Signal, error) {
	if r, ok := p.q.(*ringbuffer.Ring[T]); ok {
		if v, s, ok := r.WindowPop(); ok {
			return v, s, nil
		}
	}
	v, s, _, err := popSlow[T](p, true)
	return v, s, err
}

// TryPop removes the next element without blocking. ok reports whether an
// element was available; err is ErrClosed once the stream is closed and
// drained.
func TryPop[T any](p *Port) (v T, ok bool, err error) {
	if r, ok := p.q.(*ringbuffer.Ring[T]); ok {
		if v, _, ok := r.WindowPop(); ok {
			return v, true, nil
		}
	}
	v, _, ok, err = popSlow[T](p, false)
	return v, ok, err
}

// popSlow is the scalar pop off the window's fast path: the last element of
// a window (which releases it), the first of the next one (which opens it),
// or a direct pop at window length 1. A stream sealed by a graph rewrite
// migrates once drained and the pop retries.
func popSlow[T any](p *Port, block bool) (v T, s Signal, ok bool, err error) {
	for {
		var released int
		v, s, released, ok, err = ringOf[T](p).PopWindowed(p.windowMax(), block)
		if released > 0 {
			p.markPop()
		}
		if ok || err == nil || !p.migrateOnClosed(err) {
			return v, s, ok, err
		}
	}
}

// Push appends v to an output port, blocking while the stream is full.
func Push[T any](p *Port, v T) error {
	if r, ok := p.q.(*ringbuffer.Ring[T]); ok {
		if stored, attend := r.WindowPush(v); stored {
			if attend {
				p.attend(r.Attend()) // a consumer waits, the stream was closed, or a resize waits
			}
			return nil
		}
	}
	_, err := pushSlow(p, v, SigNone, true)
	return err
}

// PushSig appends v with a synchronized signal that downstream kernels
// receive together with the element. A signal is delivered at once: the
// element commits together with everything pushed before it.
func PushSig[T any](p *Port, v T, s Signal) error {
	if s == SigNone {
		return Push(p, v)
	}
	_, err := pushSlow(p, v, s, true)
	return err
}

// TryPush appends v without blocking; it reports whether the element was
// accepted.
func TryPush[T any](p *Port, v T) (bool, error) {
	if r, ok := p.q.(*ringbuffer.Ring[T]); ok {
		if stored, attend := r.WindowPush(v); stored {
			if attend {
				p.attend(r.Attend())
			}
			return true, nil
		}
	}
	return pushSlow(p, v, SigNone, false)
}

// attend deposits the markers of a window Attend ended.
func (p *Port) attend(committed int) {
	if committed > 0 {
		p.markPush(committed)
	}
}

// pushSlow is the scalar push off the window's fast path: the last slot of
// a window or a signal-carrying element (which commit it), the first slot of
// the next one (which opens it), or a direct push at window length 1.
func pushSlow[T any](p *Port, v T, s Signal, block bool) (ok bool, err error) {
	committed, ok, err := ringOf[T](p).PushWindowed(v, s, p.windowMax(), block)
	if committed > 0 {
		p.markPush(committed)
	}
	return ok, err
}

// PushBatch appends all of vs (more efficient than element-wise Push for
// high-rate streams); the final element carries sig.
func PushBatch[T any](p *Port, vs []T, sig Signal) error {
	if len(vs) == 0 {
		return nil
	}
	r := retired[T](p)
	last := [1]Signal{sig}
	err := r.PushN(vs[:len(vs)-1], nil)
	if err == nil {
		err = r.PushN(vs[len(vs)-1:], last[:])
	}
	if err == nil {
		p.markPush(len(vs))
	}
	return err
}

// PushN appends all of vs to an output port in one bulk operation — one
// publish per contiguous run of free slots instead of one per element. Every element carries SigNone; use
// PushNSig to attach synchronized signals. PushN blocks while the stream is
// full and returns ErrClosed on a closed stream.
func PushN[T any](p *Port, vs []T) error {
	err := retired[T](p).PushN(vs, nil)
	if err == nil {
		p.markPush(len(vs))
	}
	return err
}

// PushNSig is PushN with per-element synchronized signals: sigs must be nil
// (all SigNone) or have exactly len(vs) entries, delivered downstream
// aligned with their elements.
func PushNSig[T any](p *Port, vs []T, sigs []Signal) error {
	err := retired[T](p).PushN(vs, sigs)
	if err == nil {
		p.markPush(len(vs))
	}
	return err
}

// PopN removes up to len(dst) elements from an input port in one bulk
// operation, blocking until at least one is available. It returns the count
// filled; once the stream is closed and drained it returns (0, ErrClosed).
// The elements' signals are consumed and discarded (like Pop); use PopNSig
// to observe them.
func PopN[T any](p *Port, dst []T) (int, error) {
	for {
		n, err := retired[T](p).PopN(dst, nil)
		if n > 0 {
			p.markPop()
		}
		if err == nil || n > 0 || !p.migrateOnClosed(err) {
			return n, err
		}
	}
}

// PopNSig is PopN plus the elements' synchronized signals: the first n
// entries of sigs (which must hold at least len(dst)) receive the signals
// aligned with dst.
func PopNSig[T any](p *Port, dst []T, sigs []Signal) (int, error) {
	for {
		n, err := retired[T](p).PopN(dst, sigs)
		if n > 0 {
			p.markPop()
		}
		if err == nil || n > 0 || !p.migrateOnClosed(err) {
			return n, err
		}
	}
}

// DrainTo is the non-blocking PopN: it removes whatever is buffered, up to
// len(dst) elements, returning 0 with a nil error when the stream is empty
// but open and (0, ErrClosed) once it is closed and drained.
func DrainTo[T any](p *Port, dst []T) (int, error) {
	for {
		n, err := retired[T](p).DrainTo(dst, nil)
		if n > 0 {
			p.markPop()
		}
		if err == nil || n > 0 || !p.migrateOnClosed(err) {
			return n, err
		}
	}
}

// Peek returns the element at offset i from the stream head without
// consuming it, blocking until it arrives.
func Peek[T any](p *Port, i int) (T, error) {
	for {
		v, _, err := retired[T](p).Peek(i)
		if err == nil || !p.migrateOnClosed(err) {
			return v, err
		}
	}
}

// PeekRange blocks until n elements are available and returns them
// oldest-first, without consuming them — the paper's sliding-window
// peek_range (§3). When the buffered region is contiguous the returned
// slice aliases queue storage (zero copy); it is valid until the next
// Recycle/Pop on the port. If the stream closes with fewer than n elements
// the remainder is returned along with ErrClosed. Consume window elements
// with Recycle.
func PeekRange[T any](p *Port, n int) ([]T, error) {
	for {
		vs, _, err := retired[T](p).PeekRange(n)
		if err == nil || len(vs) > 0 || !p.migrateOnClosed(err) {
			return vs, err
		}
	}
}

// PeekRangeSig is PeekRange plus the elements' synchronized signals (nil
// when every signal is SigNone).
func PeekRangeSig[T any](p *Port, n int) ([]T, []Signal, error) {
	for {
		vs, sigs, err := retired[T](p).PeekRange(n)
		if err == nil || len(vs) > 0 || !p.migrateOnClosed(err) {
			return vs, sigs, err
		}
	}
}

// Recycle consumes the n oldest elements of an input port after a
// PeekRange, sliding the window forward.
func Recycle[T any](p *Port, n int) {
	retired[T](p).Recycle(n)
	if n > 0 {
		p.markPop()
	}
}

// Alloc is a writable slot on an output stream, the analogue of the
// paper's allocate_s return object: populate Val (and optionally Sig) and
// call Send.
type Alloc[T any] struct {
	// Val is the element to send.
	Val T
	// Sig is the synchronized signal to send with the element.
	Sig Signal

	p    *Port
	sent bool
}

// Allocate returns a slot for writing one element to an output port.
func Allocate[T any](p *Port) *Alloc[T] {
	p.mustBeBound()
	return &Alloc[T]{p: p}
}

// Send pushes the slot's value downstream. A second Send is a no-op
// returning nil, matching the send-once semantics of allocate_s.
func (a *Alloc[T]) Send() error {
	if a.sent {
		return nil
	}
	a.sent = true
	return PushSig(a.p, a.Val, a.Sig)
}
