package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// GateAction is the verdict a gated actor receives at a step boundary.
type GateAction uint8

const (
	// GateProceed lets the actor run its next step.
	GateProceed GateAction = iota
	// GateStop retires the actor: the scheduler treats it like a kernel
	// that returned Stop (Finish runs, output streams close).
	GateStop
)

// gate modes (Gate.mode).
const (
	gateRun int32 = iota
	gateHold
	gateRetire
)

// Gate lets the runtime hold an actor at a step boundary — the splice
// point of the graph-rewrite protocol. The owning scheduler calls Poll
// between kernel invocations; a controller calls Pause, which returns once
// the actor is parked inside Poll (guaranteeing it is not mid-push on any
// of its output streams), mutates the actor's port bindings, and calls
// Resume. Retire turns the next boundary into a Stop, retiring source
// kernels that have no upstream EOF to cascade from.
//
// The fast path is one atomic load per step; a gate on an undisturbed
// actor costs nothing else. The zero value is an open gate that allocates
// nothing until its first Pause, so the runtime can lay gates out in a slab.
type Gate struct {
	mode atomic.Int32

	// mu guards ack, the actor's "parked" signal to the controller (cap 1;
	// made by the first Pause; stale signals are drained before each Pause
	// arms), and release, the per-pause channel the parked actor blocks on
	// until Resume or Retire closes it.
	mu      sync.Mutex
	ack     chan struct{}
	release chan struct{}
}

// Open reports whether Poll would return GateProceed without waiting: one
// atomic load.
func (g *Gate) Open() bool { return g.mode.Load() == gateRun }

// Poll is called by the owning scheduler at every step boundary. It
// returns GateProceed immediately while the gate is open, blocks while a
// controller holds the actor, and returns GateStop once the actor is
// retired.
func (g *Gate) Poll() GateAction {
	for {
		switch g.mode.Load() {
		case gateRun:
			return GateProceed
		case gateRetire:
			return GateStop
		default:
			g.mu.Lock()
			rel, ack := g.release, g.ack
			g.mu.Unlock()
			if rel == nil {
				// Pause raced a Resume; mode is (about to be) run again.
				continue
			}
			select {
			case ack <- struct{}{}:
			default:
			}
			<-rel
		}
	}
}

// Pause requests a hold and waits for the actor to park at its next step
// boundary. It returns true once the actor is parked (the caller may then
// mutate the actor's port bindings and must call Resume), or false if the
// actor did not reach a boundary within timeout or finished() reported
// true first — in which case the gate has been reopened and nothing may
// be mutated.
func (g *Gate) Pause(timeout time.Duration, finished func() bool) bool {
	g.mu.Lock()
	if g.ack == nil {
		g.ack = make(chan struct{}, 1)
	}
	ack := g.ack
	g.release = make(chan struct{})
	g.mu.Unlock()
	select {
	case <-ack: // drain a stale signal from a prior cycle
	default:
	}
	g.mode.Store(gateHold)

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	poll := time.NewTicker(200 * time.Microsecond)
	defer poll.Stop()
	for {
		select {
		case <-ack:
			return true
		case <-deadline.C:
			g.Resume()
			return false
		case <-poll.C:
			if finished != nil && finished() {
				g.Resume()
				return false
			}
		}
	}
}

// Resume reopens the gate and releases a parked actor.
func (g *Gate) Resume() {
	g.mode.Store(gateRun)
	g.mu.Lock()
	if g.release != nil {
		close(g.release)
		g.release = nil
	}
	g.mu.Unlock()
}

// Retire marks the actor for removal: its next boundary (including a
// currently-parked one) returns GateStop.
func (g *Gate) Retire() {
	g.mode.Store(gateRetire)
	g.mu.Lock()
	if g.release != nil {
		close(g.release)
		g.release = nil
	}
	g.mu.Unlock()
}
