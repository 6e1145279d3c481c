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

// Scheduler drives the actors of an execution to completion. It is built
// empty; every transaction of the graph, epoch 0 included, hands it what it
// added through one Spawn.
type Scheduler interface {
	// Spawn adopts one transaction's actors and the links among them and the
	// running ones: it runs each actor's lifecycle, folding its error into
	// Wait's result, and wakes a running consumer of a new link. It fails,
	// starting nothing, once Wait has returned.
	Spawn(actors []*core.Actor, links []*core.LinkInfo) error
	// Wait blocks until every spawned actor has stopped, then refuses
	// further spawns and returns the combined error (nil on clean
	// completion).
	Wait() error
	// Name identifies the scheduler in reports.
	Name() string
}

// errCompleted is Spawn's refusal once Wait has returned.
var errCompleted = errors.New("scheduler: execution already completed")

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
// "default OS thread scheduler" choice. It is the runtime's default. Build
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

// Spawn implements Scheduler: one goroutine per actor. The links need no
// wiring, since each actor's goroutine waits on its own streams. The
// goroutines start outside the lock, so an actor that ends at once can
// exit, and its goroutine be reused, while the batch still starts.
func (g *Goroutine) Spawn(actors []*core.Actor, _ []*core.LinkInfo) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return errCompleted
	}
	g.n += len(actors)
	g.mu.Unlock()
	for _, a := range actors {
		go g.run(a)
	}
	return nil
}

// run is one actor's goroutine.
func (g *Goroutine) run(a *core.Actor) {
	err := runActorLifecycle(a)
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.errs = append(g.errs, err)
	}
	if g.n--; g.n == 0 {
		g.idle.Broadcast()
	}
}

// Wait implements Scheduler.
func (g *Goroutine) Wait() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.n > 0 {
		g.idle.Wait()
	}
	g.closed = true
	return errors.Join(g.errs...)
}
