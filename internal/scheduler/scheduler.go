// Package scheduler provides the kernel-execution strategies for the
// RaftLib runtime.
//
// The paper's initial scheduling algorithm "is simply the default
// thread-level scheduler provided by the underlying operating system"
// (§4.1) — in Go terms, one goroutine per kernel multiplexed by the Go
// runtime. That is the Goroutine scheduler here and the default. The paper
// also stresses that RaftLib "allows the substitution of any scheduler
// desired"; the Scheduler interface is that substitution point, and the
// WorkSteal implementation (worksteal.go) is the second scheduler behind it.
package scheduler

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"raftlib/internal/core"
)

// Scheduler drives a set of actors to completion.
type Scheduler interface {
	// Run executes every actor until it stops, then returns the combined
	// error (nil on clean completion). Run handles actor Init/Finish.
	Run(actors []*core.Actor) error
	// Spawn absorbs an actor into the running execution (a graph rewrite):
	// it runs the actor's lifecycle and folds its error into Run's result,
	// and fails once Run has completed.
	Spawn(a *core.Actor) error
	// Name identifies the scheduler in reports.
	Name() string
}

// runActorLifecycle executes one actor: Init, the Step loop, then Finish.
// On Stall it waits where the actor's Lifecycle says, or yields. Kernel
// panics are recovered and converted into errors so one faulty kernel
// cannot crash the process.
func runActorLifecycle(a *core.Actor) (err error) {
	// run: Start returned with the actor still to end (it ends an actor
	// it will not step itself); a panic in Init leaves it to end here too.
	run := false
	defer func() {
		if r := recover(); r != nil {
			// Typed: errors.Is(err, core.ErrKernelPanicked) holds, and an
			// error-valued panic (typed port misuse, injected fault) stays
			// reachable through Unwrap for classification.
			err = fmt.Errorf("kernel %q %w", a.Name, core.PanicError(r))
			run = true
		}
		if run {
			a.End(err)
		}
	}()
	if run, err = a.Start(); !run {
		return err
	}
	for {
		if a.PollGate() == core.GateStop {
			return nil
		}
		switch a.StepTimed() {
		case core.Proceed:
		case core.Stop:
			return nil
		case core.Stall:
			if a.Life == nil {
				runtime.Gosched()
			} else {
				a.Life.Await()
			}
		}
	}
}

// Goroutine runs one goroutine per actor — the Go analogue of the paper's
// "default OS thread scheduler" choice. It is the runtime's default. Spawn
// adds actors mid-run (a graph rewrite), and Run waits for those too. Build
// it with NewGoroutine.
type Goroutine struct {
	mu     sync.Mutex
	idle   sync.Cond // broadcast when the last running actor finishes
	n      int
	errs   []error
	closed bool
}

// NewGoroutine returns a Goroutine scheduler.
func NewGoroutine() *Goroutine {
	g := &Goroutine{}
	g.idle.L = &g.mu
	return g
}

// Name implements Scheduler.
func (*Goroutine) Name() string { return "goroutine-per-kernel" }

// Run implements Scheduler: it launches the actors and waits until every
// actor, spawned ones included, has finished; then it refuses spawns.
func (g *Goroutine) Run(actors []*core.Actor) error {
	for _, a := range actors {
		g.Spawn(a)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.n > 0 {
		g.idle.Wait()
	}
	g.closed = true
	return errors.Join(g.errs...)
}

// Spawn implements Scheduler.
func (g *Goroutine) Spawn(a *core.Actor) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errors.New("scheduler: execution already completed")
	}
	g.n++
	go func() {
		err := runActorLifecycle(a)
		g.mu.Lock()
		defer g.mu.Unlock()
		if err != nil {
			g.errs = append(g.errs, err)
		}
		if g.n--; g.n == 0 {
			g.idle.Broadcast()
		}
	}()
	return nil
}
