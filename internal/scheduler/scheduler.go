// Package scheduler provides the kernel-execution strategies for the
// RaftLib runtime.
//
// The paper's initial scheduling algorithm "is simply the default
// thread-level scheduler provided by the underlying operating system"
// (§4.1) — in Go terms, one goroutine per kernel multiplexed by the Go
// runtime. That is the Goroutine scheduler here and the default. The paper
// also stresses that RaftLib "allows the substitution of any scheduler
// desired"; the Scheduler interface plus the Pool implementation (a fixed
// worker pool with cooperative re-queuing) realize that substitution point
// and power the A4 scheduler ablation.
package scheduler

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

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
		if a.Finish != nil {
			a.Finish()
		}
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

// Pool multiplexes all actors over a fixed number of worker goroutines.
//
// Because kernel port operations may block inside Step (waiting for input
// or output space), a pooled worker can be held by a blocked kernel. The
// pool therefore guarantees progress only when Workers is at least the
// maximum number of simultaneously blocked kernels; for arbitrary graphs
// the safe configuration is Workers >= number of actors, which still wins
// when kernels are cooperative (return Stall instead of blocking). This
// caveat is inherent to pooling blocking kernels and is documented in
// DESIGN.md (ablation A4).
type Pool struct {
	// Workers is the number of worker goroutines (defaults to GOMAXPROCS).
	Workers int
	// StallSleep caps the exponential backoff a stalled kernel's requeue
	// sleeps before retrying (defaults to 50µs). The backoff starts at 1µs
	// on a kernel's first stalled pass and doubles per consecutive stall,
	// so a briefly-blocked kernel retries almost immediately while a
	// long-blocked one converges to the old fixed-sleep behaviour.
	StallSleep time.Duration
	// Counters, when non-nil, receives activity counts (stalled passes).
	// A pointer so the Pool value type keeps its copy semantics while Run
	// and SchedStats observe the same cells; Run leaves a nil field nil
	// and counts nothing.
	Counters *counters
	// dyn, when non-nil, adopts actors spawned mid-run by a graph rewrite.
	// The pool's job queue is sized at Run, so spawned actors run on
	// dedicated goroutines instead — correct, if unpooled; set by NewPool.
	dyn *dynSet
}

// NewPool returns a counting Pool: Workers set to workers (0 means
// GOMAXPROCS), Counters wired so SchedStats reports stalled passes, and
// Spawn supported for mid-run graph rewrites.
func NewPool(workers int) Pool {
	return Pool{Workers: workers, Counters: &counters{}, dyn: &dynSet{}}
}

// Spawn implements Spawner on pools built with NewPool. The spawned actor
// runs on its own goroutine (the pool's job queue is capacity-fixed at
// Run); Run waits for it like any pooled actor.
func (p Pool) Spawn(a *core.Actor) error {
	if p.dyn == nil {
		return errors.New("scheduler: Pool zero value cannot spawn (use NewPool)")
	}
	return p.dyn.launch(a)
}

// Name implements Scheduler.
func (p Pool) Name() string { return fmt.Sprintf("pool-%d", p.workers()) }

func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SchedStats implements StatsReporter.
func (p Pool) SchedStats() Stats {
	s := Stats{Scheduler: p.Name(), Workers: p.workers()}
	p.Counters.snapshot(&s)
	return s
}

// poolJob is one actor's scheduling handle; streak counts consecutive
// stalled passes and drives the per-kernel backoff.
type poolJob struct {
	a      *core.Actor
	idx    int
	streak int
}

// Run implements Scheduler.
func (p Pool) Run(actors []*core.Actor) error {
	stallCap := p.StallSleep
	if stallCap <= 0 {
		stallCap = 50 * time.Microsecond
	}

	queue := make(chan *poolJob, len(actors))
	errs := make([]error, len(actors))
	var errMu sync.Mutex
	var pending sync.WaitGroup // counts unfinished actors

	// Initialize all actors up front; failures mark the actor finished.
	live := make([]*poolJob, 0, len(actors))
	for i, a := range actors {
		if a.Init != nil {
			if err := a.Init(); err != nil {
				errs[i] = fmt.Errorf("kernel %q init: %w", a.Name, err)
				if a.Finish != nil {
					a.Finish()
				}
				a.Finished.Store(true)
				continue
			}
		}
		if a.Virtual {
			if a.Finish != nil {
				a.Finish()
			}
			a.Finished.Store(true)
			continue
		}
		live = append(live, &poolJob{a: a, idx: i})
	}
	pending.Add(len(live))
	for _, j := range live {
		queue <- j
	}

	var wg sync.WaitGroup
	for w := 0; w < p.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				p.stepQuantum(j, errs, &errMu, func(done bool) {
					if done {
						pending.Done()
					} else {
						queue <- j // cooperative requeue
					}
				}, stallCap)
			}
		}()
	}

	pending.Wait()
	close(queue)
	wg.Wait()
	err := errors.Join(errs...)
	if p.dyn != nil {
		if derr := p.dyn.wait(); derr != nil {
			err = errors.Join(err, derr)
		}
	}
	return err
}

// stepQuantum runs a bounded burst of Steps for one actor, then either
// finishes it or hands it back via done(false). A pass that makes no
// progress sleeps the kernel's current backoff (1µs doubled per
// consecutive stalled pass, capped at stallCap) before the requeue; any
// progress resets the streak.
func (p Pool) stepQuantum(j *poolJob, errs []error, errMu *sync.Mutex, done func(bool), stallCap time.Duration) {
	a := j.a
	finished := false
	defer func() {
		if r := recover(); r != nil {
			errMu.Lock()
			errs[j.idx] = fmt.Errorf("kernel %q %w", a.Name, core.PanicError(r))
			errMu.Unlock()
			finished = true
		}
		if finished {
			if a.Finish != nil {
				a.Finish()
			}
			a.Finished.Store(true)
			done(true)
		} else {
			// Off the worker until requeued: other kernels run meanwhile, so
			// this one's port windows must not stay open.
			a.Quiesce()
			done(false)
		}
	}()
	const quantum = 64
	for i := 0; i < quantum; i++ {
		if a.PollGate() == core.GateStop {
			finished = true
			return
		}
		// Readiness gate: never let a kernel that would block on a port
		// capture this worker — requeue it and serve someone who can run.
		if a.Ready != nil && !a.Ready() {
			if i == 0 {
				p.stalled(j, stallCap)
			}
			return
		}
		switch a.StepTimed() {
		case core.Proceed:
			j.streak = 0
		case core.Stop:
			finished = true
			return
		case core.Stall:
			p.stalled(j, stallCap)
			return
		}
	}
	j.streak = 0
}

// stalled records one no-progress pass and sleeps the kernel's backoff.
func (p Pool) stalled(j *poolJob, stallCap time.Duration) {
	if p.Counters != nil {
		p.Counters.stalled.Add(1)
	}
	d := time.Microsecond << min(j.streak, 20)
	if d > stallCap {
		d = stallCap
	}
	j.streak++
	time.Sleep(d)
}
