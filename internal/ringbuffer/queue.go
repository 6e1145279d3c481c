// Package ringbuffer implements the FIFO stream queues that connect RaftLib
// compute kernels.
//
// Each stream in the paper's model is a FIFO queue whose allocation is
// chosen by the runtime (§1, §4.2). There is one queue, Ring[T]: a
// dynamically resizable single-producer single-consumer FIFO in which every
// slot carries a value plus a synchronized signal (§4.2: "downstream kernels
// will receive the signal at the same time the corresponding data element is
// received"). Its two ends share no lock on the data path: the producer owns
// the tail index and the consumer the head. A monitor thread may grow or
// shrink it at runtime using the paper's §4.1 rules; NewRingFromSlice builds
// a pre-filled read-only Ring that aliases caller memory, realizing the
// paper's zero-copy for_each source (§4.2, Fig. 6).
//
// The ring exposes the untyped Queue interface consumed by the runtime
// scheduler and monitor; element-typed access goes through the generic
// methods.
package ringbuffer

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"time"

	"raftlib/internal/owned"
)

// Signal is an in-band message that travels the stream synchronized with a
// data element (paper §4.2). SigEOF marks the last element from a producer.
type Signal uint8

// Predefined signals. User signals occupy SigUser and above.
const (
	SigNone Signal = iota
	// SigEOF arrives synchronized with (immediately after) the final data
	// element of a stream, analogous to an end-of-file marker.
	SigEOF
	// SigTerm requests immediate termination regardless of pending data.
	SigTerm
	// SigUser is the first value available for application-defined signals.
	SigUser Signal = 16
)

// String returns a human-readable signal name.
func (s Signal) String() string {
	switch s {
	case SigNone:
		return "none"
	case SigEOF:
		return "eof"
	case SigTerm:
		return "term"
	default:
		if s >= SigUser {
			return "user"
		}
		return "reserved"
	}
}

// ErrClosed is returned by read operations once a queue has been closed by
// its producer and fully drained, and by write operations on a closed queue.
var ErrClosed = errors.New("ringbuffer: queue closed")

// ErrTooSmall is returned by Resize when the requested capacity cannot hold
// the elements currently buffered.
var ErrTooSmall = errors.New("ringbuffer: new capacity smaller than current length")

// Queue is the element-type-agnostic view of a stream queue used by the
// runtime scheduler, the monitor and the port layer.
type Queue interface {
	Windower
	// Len returns the number of buffered elements.
	Len() int
	// Cap returns the current capacity.
	Cap() int
	// Resize changes capacity, preserving buffered elements. Growing is
	// always legal; shrinking below Len returns ErrTooSmall.
	Resize(newCap int) error
	// ResizePending reports whether a Resize accepted while a view or a port
	// window pinned the storage is still waiting for the release that
	// applies it.
	ResizePending() bool
	// Close marks the producer side finished. Buffered elements remain
	// readable; subsequent reads return ErrClosed once drained.
	Close()
	// Closed reports whether the producer has closed the queue.
	Closed() bool
	// WriterBlockedFor returns how long the producer has currently been
	// blocked waiting for space (zero if it is not blocked). This feeds the
	// paper's 3×δ write-side resize trigger.
	WriterBlockedFor() time.Duration
	// ReaderStarvedFor returns how long the consumer has currently been
	// blocked waiting for data (zero if it is not blocked). The monitor's
	// deadlock detector reads it.
	ReaderStarvedFor() time.Duration
	// ViewHeldFor returns how long the longest currently outstanding batch
	// view (read or write, view.go) has been held, or zero when none is out.
	ViewHeldFor() time.Duration
	// Blocked reports whether an operation at one end would block now: the
	// consumer's (producer false) finds nothing buffered, the producer's no
	// free slot, and the queue is open. When it would, the end is armed: the
	// other end's next release or publish wakes it through the WakeHooker
	// hook. Call it from that end's goroutine.
	Blocked(producer bool) bool
	// Wait sleeps while Blocked(producer) would hold, as a blocking push or
	// pop at that end would: the sleep counts as that end's block time.
	// Call it from that end's goroutine, outside a view of its own.
	Wait(producer bool)
	// Telemetry returns the queue's performance counters.
	Telemetry() *Telemetry
}

// Telemetry aggregates per-queue performance counters. A commit counts
// with plain stores: Pushes and the occupancy buckets have one writer, the
// producer, and Pops one, the consumer, so they are owned.Counters (DESIGN
// §6.3); the rest are atomic adds off the commit path. The producer's and
// the consumer's counters sit on cache lines of their own, so that neither
// end's counting moves a line the other end is writing.
type Telemetry struct {
	// Written by the producer.
	Pushes       owned.Counter // one writer: the producer's commit
	WriteBlockNs counter64     // cumulative producer block time
	// Evicted and Shed count elements the best-effort overflow policy
	// (SetBestEffort) discarded. Evicted elements were resident — stale
	// elements a full ring dropped from its head (latest-wins) — and are
	// counted in Pushes but never in Pops. Shed elements never entered:
	// incoming elements a full ring whose head is pinned by a signal or a
	// read view discarded; they are counted in neither. Of the elements
	// offered, Pushes = offered - Shed, and once drained Pushes = Pops +
	// Evicted.
	Evicted counter64
	Shed    counter64
	// occ is the paper's §4.1 "queue occupancy histogram" recorded on the
	// write side itself rather than by monitor sampling: bucket i counts
	// commits that left the queue at a log2-bucketed occupancy (bucket 0 =
	// {0,1} elements, bucket i = [2^i, 2^(i+1))). One increment per commit,
	// by its one writer, the producer — a window or a batch records once —
	// so the histogram weights synchronization points, which is exactly
	// what the allocator and batcher reason about.
	occ [OccBuckets]owned.Counter

	// A cache line of cold words between the two ends' counters: the resize
	// counts, written under the ring lock by whoever resizes, and the two
	// block stamps (UnixNano, 0 when not blocked), written as an end goes to
	// sleep and wakes.
	Resizes                            counter64
	Grows                              counter64
	Shrinks                            counter64
	writerBlockSince, readerBlockSince atomic.Int64
	_                                  [24]byte

	// Written by the consumer.
	Pops        owned.Counter // one writer: the consumer's release
	ReadBlockNs counter64     // cumulative consumer block time
	// Views counts completed borrow/release cycles (read and write batch
	// views, see view.go); ViewHoldNs is the cumulative wall time views were
	// held. A link whose mean hold time approaches the monitor's δ is
	// holding its ring storage long enough to distort occupancy-based
	// decisions, and these counters make that pressure observable.
	Views      counter64
	ViewHoldNs counter64
}

// OccBuckets is the number of log2 occupancy buckets; bucket OccBuckets-1
// absorbs any occupancy ≥ 2^(OccBuckets-1) (capacities beyond 4G elements
// do not occur).
const OccBuckets = 33

// recordOcc tallies the occupancy a push operation left behind.
func (t *Telemetry) recordOcc(n int) {
	i := 0
	if n > 1 {
		i = bits.Len64(uint64(n)) - 1
		if i >= OccBuckets {
			i = OccBuckets - 1
		}
	}
	t.occ[i].Add(1)
}

// Flow returns the cumulative push and pop counts — the per-tick read
// hook of the online rate estimator (two atomic loads, no snapshot copy:
// the estimator polls every link on every estimation window, so the full
// Snapshot would be mostly wasted work).
func (t *Telemetry) Flow() (pushes, pops uint64) {
	return t.Pushes.Load(), t.Pops.Load()
}

// BlockNs returns the cumulative producer and consumer block times — the
// estimator's evidence that a window's observations were contaminated by
// blocking and should not update the non-blocking service rate.
func (t *Telemetry) BlockNs() (writeNs, readNs uint64) {
	return t.WriteBlockNs.Load(), t.ReadBlockNs.Load()
}

// OccStats reduces the occupancy histogram to its count and occupancy-
// weighted sum (bucket midpoints): mean-occupancy-at-push over any window
// is a delta of the two. This is the occupancy read hook the estimator's
// utilization/derivative signal consumes — it avoids copying all
// OccBuckets counters per link per window.
func (t *Telemetry) OccStats() (count uint64, weighted float64) {
	for i := range t.occ {
		n := t.occ[i].Load()
		if n == 0 {
			continue
		}
		mid := 1.0
		if i > 0 {
			mid = 1.5 * float64(uint64(1)<<uint(i)) // midpoint of [2^i, 2^(i+1))
		}
		count += n
		weighted += float64(n) * mid
	}
	return count, weighted
}

// Drops returns the cumulative best-effort drop count, Evicted + Shed — the
// read hook the monitor's per-tick drop watcher and the ingestion gateway's
// per-source counters poll (the full Snapshot copies the whole occupancy
// histogram, wasted work at those call rates).
func (t *Telemetry) Drops() uint64 { return t.Evicted.Load() + t.Shed.Load() }

// Snapshot returns a plain-value copy of the counters.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	s := TelemetrySnapshot{
		Pushes:       t.Pushes.Load(),
		Pops:         t.Pops.Load(),
		WriteBlockNs: t.WriteBlockNs.Load(),
		ReadBlockNs:  t.ReadBlockNs.Load(),
		Resizes:      t.Resizes.Load(),
		Grows:        t.Grows.Load(),
		Shrinks:      t.Shrinks.Load(),
		Evicted:      t.Evicted.Load(),
		Shed:         t.Shed.Load(),
		Views:        t.Views.Load(),
		ViewHoldNs:   t.ViewHoldNs.Load(),
	}
	for i := range s.Occupancy {
		s.Occupancy[i] = t.occ[i].Load()
	}
	return s
}

// TelemetrySnapshot is an immutable copy of Telemetry.
type TelemetrySnapshot struct {
	Pushes       uint64
	Pops         uint64
	WriteBlockNs uint64
	ReadBlockNs  uint64
	Resizes      uint64
	Grows        uint64
	Shrinks      uint64
	// Evicted and Shed count elements discarded by the best-effort
	// overflow policy (see Telemetry).
	Evicted uint64
	Shed    uint64
	// Views counts completed borrow/release view cycles; ViewHoldNs is the
	// cumulative time views were held (see view.go).
	Views      uint64
	ViewHoldNs uint64
	// Occupancy is the per-push log2 occupancy histogram (see Telemetry.occ
	// for bucket semantics). Quantiles come from stats.LogQuantile.
	Occupancy [OccBuckets]uint64
}

// Drops returns the best-effort drop count, Evicted + Shed.
func (t TelemetrySnapshot) Drops() uint64 { return t.Evicted + t.Shed }
