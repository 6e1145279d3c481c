package raft

import (
	"fmt"
	"sync/atomic"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/fault"
	"raftlib/internal/resilience"
)

// This file is the public face of the resilience subsystem: kernel
// supervision (panic recovery with a restart policy), checkpoint/restart
// for stateful kernels, and deterministic fault injection. The paper's
// runtime "owns" buffer sizing, mapping and scheduling (§4.1); these
// options extend that ownership to partial failure, keeping the kernel
// programming model unchanged — a kernel that panics is restarted in place
// with its streams intact, and only an exhausted restart budget surfaces
// as an error (via the §4.2 asynchronous global exception pathway).

// Checkpointable is implemented by kernels whose state should survive
// restarts. The supervisor snapshots after successful invocations and
// restores before re-running a kernel it just restarted; every execution,
// supervised or not, restores the kernel from its checkpoint store before
// the first step. With a file-backed store (NewFileCheckpointStore) state also
// survives process exit, enabling cross-execution resume.
//
// A Restore that fails before the first step fails the kernel's
// initialization (`kernel "k" init: checkpoint restore: ...`): the kernel
// never steps, its streams close, and Wait returns the error. This holds
// for template instances too — an instance whose stored snapshot is
// rejected still joins the graph, and the failure surfaces from Wait; the
// request that instantiated it is admitted, or refused as unavailable once
// the kernel has closed the intake link.
type Checkpointable interface {
	// Snapshot serializes the kernel's mutable state.
	Snapshot() ([]byte, error)
	// Restore re-establishes state from a prior Snapshot.
	Restore(snapshot []byte) error
}

// SupervisionPolicy is the per-kernel restart policy: restart budget and
// exponential backoff parameters. The zero value selects the defaults
// (3 restarts, 1ms initial backoff doubling to 1s, 10% jitter).
type SupervisionPolicy = resilience.Policy

// CheckpointStore persists kernel snapshots keyed by kernel name.
type CheckpointStore = resilience.Store

// NewMemCheckpointStore returns an in-memory CheckpointStore: snapshots
// survive kernel restarts within one execution but not process exit.
func NewMemCheckpointStore() CheckpointStore { return resilience.NewMemStore() }

// NewFileCheckpointStore returns a CheckpointStore persisting one file per
// kernel under dir (created if needed), for cross-execution resume.
func NewFileCheckpointStore(dir string) (CheckpointStore, error) {
	return resilience.NewFileStore(dir)
}

// RecoveryEvent records one supervised restart (or the terminal failure of
// an exhausted kernel); see Report.Recoveries.
type RecoveryEvent = resilience.Event

// FaultInjector is a deterministic fault plan: kernel kills at exact
// invocation indices, bridge severs/corruptions/delays at exact frame
// sequences. Arm one with NewFaultInjector and install it with
// WithFaultInjection; it drives the chaos tests and the A10 ablation.
type FaultInjector = fault.Injector

// NewFaultInjector returns an empty fault plan.
func NewFaultInjector() *FaultInjector { return fault.New() }

// BridgeReport summarizes one self-healing remote stream's recovery
// activity (oar bridges publish these; see Report.Bridges).
type BridgeReport struct {
	// Stream is the bridge's stream name.
	Stream string
	// Reconnects counts connections re-established after a failure.
	Reconnects uint64
	// Replayed counts frames retransmitted from the replay buffer.
	Replayed uint64
	// Dropped counts elements discarded under the Drop degradation policy.
	Dropped uint64
	// Downtime is the cumulative time spent disconnected.
	Downtime time.Duration
}

// BridgeReporter is implemented by bridge kernels that publish recovery
// counters; Exe collects them into Report.Bridges.
type BridgeReporter interface {
	// BridgeStats returns the bridge's recovery counters; ok is false when
	// the kernel never carried a bridge connection.
	BridgeStats() (rep BridgeReport, ok bool)
}

// WithSupervision wraps every kernel in a supervisor: a panic inside Run
// no longer aborts the application — the kernel restarts in place (its
// streams stay bound, so neighbors simply observe a pause) under the given
// restart policy. A kernel that exhausts its budget is escalated through
// the global exception pathway and Exe returns an error wrapping
// ErrRetriesExhausted. Pass the zero SupervisionPolicy for defaults.
func WithSupervision(p SupervisionPolicy) Option {
	return func(c *Config) {
		c.supervised = true
		c.supervision = p
	}
}

// WithCheckpointStore enables supervision with checkpoints in s:
// Checkpointable kernels snapshot after successful invocations and restore
// on restart. With NewFileCheckpointStore(dir) they also resume from the
// latest snapshot when a new execution starts over the same directory;
// NewMemCheckpointStore protects restarts in-process without touching disk.
func WithCheckpointStore(s CheckpointStore) Option {
	return func(c *Config) {
		c.supervised = true
		c.ckptStore = s
	}
}

// WithFaultInjection installs an armed fault plan. Injected kernel kills
// panic at the top of the chosen invocation (before any input is popped),
// so a supervised run recovers them losslessly; bridge faults fire at
// exact frame sequence numbers inside the oar transport.
func WithFaultInjection(inj *FaultInjector) Option {
	return func(c *Config) { c.fault = inj }
}

// faultHook is the Runner of an actor under fault injection: it gives the
// injector its say before each invocation of the kernel it wraps.
type faultHook struct {
	inner core.Runner
	inj   *FaultInjector
	name  string
	runs  atomic.Uint64
}

func (f *faultHook) Run() core.Status {
	f.inj.BeforeRun(f.name, f.runs.Add(1))
	return f.inner.Run()
}

// wireActorResilience applies the execution's resilience configuration to
// one actor in the build pass, so every kernel — of epoch 0 or spliced in
// later — gets the same plumbing. A Checkpointable kernel restores from the
// execution's store before its first step: a persistent store may hold a
// snapshot from an earlier run (cross-execution resume), and a template
// instance one from its reaped predecessor. Ordering matters for the
// wraps: the fault hook goes innermost (an injected kill must look exactly
// like a kernel panic) and supervision outermost (so it catches both real
// and injected failures).
func wireActorResilience(cfg *Config, k Kernel, a *core.Actor) {
	if a.Virtual {
		return
	}
	if cfg.fault != nil {
		a.Runner = &faultHook{inner: a.Runner, inj: cfg.fault, name: a.Name}
	}
	var hooks resilience.Hooks
	if ck, ok := k.(Checkpointable); ok {
		store, name := cfg.ckptStore, a.Name
		hooks.Checkpoint = func() error {
			snap, err := ck.Snapshot()
			if err != nil {
				return err
			}
			return store.Save(name, snap)
		}
		hooks.Restore = func() error {
			snap, found, err := store.Load(name)
			if err != nil || !found {
				return err
			}
			return ck.Restore(snap)
		}
		innerInit, restore := a.Init, hooks.Restore
		a.Init = func() error {
			if innerInit != nil {
				if err := innerInit(); err != nil {
					return err
				}
			}
			if err := restore(); err != nil {
				return fmt.Errorf("checkpoint restore: %w", err)
			}
			return nil
		}
	}
	if cfg.supervised {
		hooks.OnExhausted, hooks.Log = k.kernelBase().Raise, cfg.resLog
		resilience.Supervise(a, cfg.supervision, hooks)
	}
}
