// Package resilience implements the supervision-and-recovery layer of the
// runtime: per-kernel supervisors that absorb panics under a restart
// policy (bounded retries, exponential backoff with deterministic jitter,
// escalation on exhaustion), and the checkpoint stores behind the public
// raft.Checkpointable API.
//
// The paper's runtime "owns everything the programmer traditionally gets
// wrong" (§4.1) — buffers, mapping, scheduling. This package extends that
// ownership to the failure story: a panicking kernel no longer aborts the
// topology; it restarts in place (its streams stay bound, so producers and
// consumers never notice), optionally restoring checkpointed state first.
// Only when the restart budget is exhausted does the supervisor escalate
// through the map-global exception pathway, turning the crash loop into
// one typed error.
//
// Layering: resilience depends only on core and stats, never on raft —
// the same discipline that keeps schedulers and the monitor substitutable.
package resilience

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/trace"
)

// Sentinel errors, re-exported by raft/errors.go.
var (
	// ErrRetriesExhausted marks a kernel that kept panicking past its
	// restart budget; the supervisor escalates it as a permanent failure.
	ErrRetriesExhausted = errors.New("restart retries exhausted")
	// ErrCheckpointFailed wraps snapshot or restore failures.
	ErrCheckpointFailed = errors.New("checkpoint failed")
)

// Policy is the restart policy one supervisor applies.
type Policy struct {
	// MaxRestarts is the kernel's lifetime restart budget; the restart
	// exceeding it escalates instead. Negative means unlimited. The zero
	// value selects the default (3).
	MaxRestarts int
	// InitialBackoff is the sleep before the first restart (default 1ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 1s).
	MaxBackoff time.Duration
	// Multiplier scales the backoff between consecutive restarts of the
	// same kernel (default 2).
	Multiplier float64
	// Jitter is the random fraction (0..1) added to each backoff to
	// de-synchronize mass restarts (default 0.1). The jitter source is
	// seeded from the kernel name, so runs are reproducible.
	Jitter float64
}

// withDefaults fills zero fields with the default policy.
func (p Policy) withDefaults() Policy {
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 3
	}
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.MaxBackoff < p.InitialBackoff {
		p.MaxBackoff = p.InitialBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.1
	}
	return p
}

// Event records one supervision decision for reports and tests.
type Event struct {
	// At is when the panic was caught.
	At time.Time
	// Kernel is the supervised kernel's name.
	Kernel string
	// Attempt is the 1-based restart attempt.
	Attempt int
	// Cause is the recovered panic rendered as text.
	Cause string
	// Backoff is the sleep applied before the restart.
	Backoff time.Duration
	// Recovery is the measured downtime: panic catch to the kernel being
	// runnable again (backoff + state restore).
	Recovery time.Duration
	// Recovered is false for the terminal event of an exhausted kernel.
	Recovered bool
}

// Log collects events from every supervisor of one execution.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// Add appends one event.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Hooks are the optional integration points a supervisor drives.
type Hooks struct {
	// Restore re-establishes kernel state after a restart (typically from
	// the latest checkpoint). A restore error counts as another failure.
	Restore func() error
	// Checkpoint snapshots kernel state; called after every CheckpointEvery
	// successful invocations (and on Stop) when non-nil.
	Checkpoint func() error
	// CheckpointEvery is the snapshot period in successful invocations
	// (default 1: snapshot after every run, the only period that keeps a
	// restored accumulator exactly consistent with the stream position).
	CheckpointEvery uint64
	// OnExhausted escalates a permanent failure (raft wires it to the
	// map-global KernelBase.Raise, the paper's async exception pathway).
	OnExhausted func(error)
	// Log receives restart events when non-nil.
	Log *Log
}

// Supervisor wraps one actor's invocation with panic recovery and the
// restart policy: it is the actor's Runner, and runs the one it replaced.
// Create with Supervise.
type Supervisor struct {
	name     string
	p        Policy
	h        Hooks
	actor    *core.Actor
	inner    core.Runner
	rng      *rand.Rand
	attempts int
	sinceCk  uint64
}

// Supervise wraps the actor's invocation in place and returns the
// supervisor. The wrapped invocation never lets a panic escape: it either
// restarts the kernel (after backoff and optional state restore) or, once
// the budget is exhausted, reports the failure through OnExhausted and
// stops the kernel.
func Supervise(a *core.Actor, p Policy, h Hooks) *Supervisor {
	if h.CheckpointEvery == 0 {
		h.CheckpointEvery = 1
	}
	seed := fnv.New64a()
	seed.Write([]byte(a.Name))
	s := &Supervisor{
		name:  a.Name,
		p:     p.withDefaults(),
		h:     h,
		actor: a,
		inner: a.Invocation(),
		rng:   rand.New(rand.NewSource(int64(seed.Sum64()))),
	}
	a.Runner = s
	return s
}

// Run is one supervised invocation (core.Runner).
func (s *Supervisor) Run() core.Status {
	st, perr := s.safeStep()
	if perr == nil {
		if s.h.Checkpoint != nil && st != core.Stall {
			s.sinceCk++
			if s.sinceCk >= s.h.CheckpointEvery || st == core.Stop {
				s.sinceCk = 0
				// The snapshot speaks for a stream position: what the kernel
				// has popped is released and what it has pushed is committed
				// before its state is saved.
				s.actor.Quiesce()
				if err := s.h.Checkpoint(); err != nil {
					return s.fail(fmt.Errorf("%w: %w", ErrCheckpointFailed, err))
				}
				s.emit(trace.CheckpointSave, 0)
			}
		}
		return st
	}
	return s.fail(perr)
}

// emit publishes one supervision transition on the run's telemetry bus
// (when the supervised actor carries one).
func (s *Supervisor) emit(kind trace.Kind, arg int64) {
	if rec := s.actor.Trace; rec != nil {
		rec.Emit(trace.Event{
			Actor: s.actor.TraceID, Kind: kind,
			At: time.Now().UnixNano(), Arg: arg,
		})
	}
}

// fail applies the restart policy to one failure.
func (s *Supervisor) fail(cause error) core.Status {
	caught := time.Now()
	// The kernel died mid-invocation and is about to sleep through its
	// back-off: its port windows hold elements its neighbours are owed.
	s.actor.Quiesce()
	s.attempts++
	if s.p.MaxRestarts >= 0 && s.attempts > s.p.MaxRestarts {
		err := fmt.Errorf("kernel %q: %w after %d restarts: %w",
			s.name, ErrRetriesExhausted, s.attempts-1, cause)
		if s.h.Log != nil {
			s.h.Log.Add(Event{
				At: caught, Kernel: s.name, Attempt: s.attempts,
				Cause: cause.Error(), Recovered: false,
			})
		}
		if s.h.OnExhausted != nil {
			s.h.OnExhausted(err)
		}
		s.emit(trace.Escalate, int64(s.attempts))
		return core.Stop
	}

	backoff := s.backoff(s.attempts)
	time.Sleep(backoff)
	if s.h.Restore != nil {
		if rerr := s.h.Restore(); rerr != nil {
			// A failing restore is itself a failure: it consumes another
			// attempt rather than looping on a corrupt checkpoint.
			return s.fail(fmt.Errorf("%w: restore: %w", ErrCheckpointFailed, rerr))
		}
		s.emit(trace.CheckpointRestore, int64(s.attempts))
	}
	s.actor.Restarts.Inc()
	s.emit(trace.Restart, int64(s.attempts))
	if s.h.Log != nil {
		s.h.Log.Add(Event{
			At: caught, Kernel: s.name, Attempt: s.attempts,
			Cause: cause.Error(), Backoff: backoff,
			Recovery: time.Since(caught), Recovered: true,
		})
	}
	return core.Proceed
}

// backoff computes the sleep before restart attempt n (1-based):
// Initial × Multiplier^(n-1), capped at MaxBackoff, plus jitter.
func (s *Supervisor) backoff(attempt int) time.Duration {
	d := float64(s.p.InitialBackoff)
	for i := 1; i < attempt; i++ {
		d *= s.p.Multiplier
		if d >= float64(s.p.MaxBackoff) {
			d = float64(s.p.MaxBackoff)
			break
		}
	}
	if s.p.Jitter > 0 {
		d += d * s.p.Jitter * s.rng.Float64()
	}
	if d > float64(s.p.MaxBackoff) {
		d = float64(s.p.MaxBackoff)
	}
	return time.Duration(d)
}

// Attempts returns the number of failures absorbed or escalated so far.
func (s *Supervisor) Attempts() int { return s.attempts }

// safeStep invokes the kernel once, converting a panic into an error.
func (s *Supervisor) safeStep() (st core.Status, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = core.PanicError(r)
		}
	}()
	return s.inner.Run(), nil
}
