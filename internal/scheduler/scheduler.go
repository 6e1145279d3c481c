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
	// Name identifies the scheduler in reports.
	Name() string
}

// Spawner is implemented by schedulers that can absorb actors into a
// running execution — the scheduling half of the graph-rewrite protocol.
// Spawn runs the actor's full lifecycle (Init, Step loop, Finish) and
// folds its error into Run's combined result; it fails once Run has
// completed, since a finished execution cannot adopt new kernels.
type Spawner interface {
	Spawn(a *core.Actor) error
}

// dynSet tracks dynamically-runnable actors for the simpler schedulers:
// a goroutine per actor, a shared error list, and a completion latch so
// Run can wait for spawns that arrive while it is already waiting.
type dynSet struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	errs   []error
	closed bool
}

func (d *dynSet) launch(a *core.Actor) error {
	d.mu.Lock()
	if d.cond == nil {
		d.cond = sync.NewCond(&d.mu)
	}
	if d.closed {
		d.mu.Unlock()
		return errors.New("scheduler: execution already completed")
	}
	d.n++
	d.mu.Unlock()
	go func() {
		err := runActorLifecycle(a, runtime.Gosched)
		d.mu.Lock()
		if err != nil {
			d.errs = append(d.errs, err)
		}
		d.n--
		if d.n == 0 {
			d.cond.Broadcast()
		}
		d.mu.Unlock()
	}()
	return nil
}

// wait blocks until every launched actor (including ones spawned during
// the wait) has finished, then closes the set against further spawns.
func (d *dynSet) wait() error {
	d.mu.Lock()
	if d.cond == nil {
		d.cond = sync.NewCond(&d.mu)
	}
	for d.n > 0 {
		d.cond.Wait()
	}
	d.closed = true
	err := errors.Join(d.errs...)
	d.mu.Unlock()
	return err
}

// runActorLifecycle executes one actor: Init, the Step loop, then Finish.
// yield is invoked on Stall. Panics inside kernel code are recovered and
// converted into errors so one faulty kernel cannot crash the process.
func runActorLifecycle(a *core.Actor, yield func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Typed: errors.Is(err, core.ErrKernelPanicked) holds, and an
			// error-valued panic (typed port misuse, injected fault) stays
			// reachable through Unwrap for classification.
			err = fmt.Errorf("kernel %q %w", a.Name, core.PanicError(r))
		}
		a.Finish()
		a.Finished.Store(true)
	}()
	if a.Init != nil {
		if err := a.Init(); err != nil {
			return fmt.Errorf("kernel %q init: %w", a.Name, err)
		}
	}
	if a.Virtual {
		return nil
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
			yield()
		}
	}
}

// Goroutine runs one goroutine per actor — the Go analogue of the paper's
// "default OS thread scheduler" choice. It is the runtime's default. The
// zero value works; NewGoroutine returns one that additionally supports
// Spawn (actors added mid-run by a graph rewrite).
type Goroutine struct {
	dyn *dynSet
}

// NewGoroutine returns a Goroutine scheduler that implements Spawner.
func NewGoroutine() Goroutine { return Goroutine{dyn: &dynSet{}} }

// Name implements Scheduler.
func (Goroutine) Name() string { return "goroutine-per-kernel" }

// Run implements Scheduler.
func (g Goroutine) Run(actors []*core.Actor) error {
	if g.dyn != nil {
		for _, a := range actors {
			g.dyn.launch(a)
		}
		return g.dyn.wait()
	}
	var wg sync.WaitGroup
	errs := make([]error, len(actors))
	for i, a := range actors {
		wg.Add(1)
		go func(i int, a *core.Actor) {
			defer wg.Done()
			errs[i] = runActorLifecycle(a, runtime.Gosched)
		}(i, a)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Spawn implements Spawner on schedulers built with NewGoroutine.
func (g Goroutine) Spawn(a *core.Actor) error {
	if g.dyn == nil {
		return errors.New("scheduler: Goroutine zero value cannot spawn (use NewGoroutine)")
	}
	return g.dyn.launch(a)
}
