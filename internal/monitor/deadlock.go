package monitor

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"raftlib/internal/core"
)

// Deadlock detection. The runtime treats compute kernels as black boxes
// behind blocking FIFOs, so a mis-designed application — e.g. a kernel
// consuming its two inputs at different rates behind a broadcast — can
// freeze with every kernel parked on a port operation that no other kernel
// will ever complete. Rather than hang, the monitor detects the global
// freeze and aborts the application with a diagnostic naming the parked
// streams.
//
// Detection predicate, evaluated per tick against the link set:
//
//  1. every unfinished actor is parked on at least one of its streams —
//     the producer side reports WriterBlockedFor > 0 or the consumer side
//     ReaderStarvedFor > 0 (a blocking wait under the goroutine
//     scheduler), or the work-stealing scheduler holds it parked
//     (core.Actor.Parked). A computing kernel is never parked, so long
//     computations cannot be misdiagnosed;
//  2. total push+pop counts — plus supervised restart counts, so a kernel
//     crash-looping through recovery registers as activity rather than a
//     freeze — are unchanged since the previous tick (no in-flight
//     progress racing the scan); and
//  3. 1 and 2 have held continuously for the configured grace period.
//
// The predicate is conservative: under the goroutine scheduler a merge
// asleep on several inputs at once (actorEntry.Await in raft) stamps no
// ring, so a topology frozen around one never satisfies condition 1 — a
// missed detection, never a false abort.

// DeadlockWatch extends a Monitor with freeze detection. It is built
// empty; every transaction, epoch 0 included, hands it what it added.
type DeadlockWatch struct {
	// mu guards actors and links: Check runs on the monitor goroutine
	// while graph rewrites splice both sets from the rewriter's.
	mu     sync.Mutex
	actors []*core.Actor
	links  []*core.LinkInfo
	grace  time.Duration
	abort  func(diagnostic string)

	frozenSince time.Time
	lastOps     uint64
	fired       bool
	// parked and finished are frozen's scratch, indexed by actor ID and
	// kept across ticks, so an armed watch allocates nothing per tick.
	parked, finished []bool
}

// NewDeadlockWatch builds a watcher that calls abort with a diagnostic
// once the application has been globally frozen for the grace period.
func NewDeadlockWatch(grace time.Duration, abort func(string)) *DeadlockWatch {
	if grace <= 0 {
		grace = time.Second
	}
	return &DeadlockWatch{grace: grace, abort: abort}
}

// Add includes one transaction's actors and links in the freeze scan.
func (d *DeadlockWatch) Add(actors []*core.Actor, links []*core.LinkInfo) {
	d.mu.Lock()
	d.actors = append(d.actors, actors...)
	d.links = append(d.links, links...)
	d.mu.Unlock()
}

// RemoveLinks drops sealed links from the freeze scan (removed actors need
// no counterpart: they finish, and finished actors are skipped).
func (d *DeadlockWatch) RemoveLinks(links []*core.LinkInfo) {
	d.mu.Lock()
	d.links = slices.DeleteFunc(d.links, func(l *core.LinkInfo) bool { return slices.Contains(links, l) })
	d.mu.Unlock()
}

// Check evaluates the predicate once; the Monitor calls it per tick.
func (d *DeadlockWatch) Check(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fired {
		return
	}
	frozen, ops := d.frozen()
	if !frozen || ops != d.lastOps {
		d.frozenSince = time.Time{}
		d.lastOps = ops
		return
	}
	if d.frozenSince.IsZero() {
		d.frozenSince = now
		return
	}
	if now.Sub(d.frozenSince) >= d.grace {
		d.fired = true
		d.abort(d.diagnose())
	}
}

// Fired reports whether a deadlock was declared.
func (d *DeadlockWatch) Fired() bool { return d.fired }

// frozen reports whether every unfinished actor is parked, plus the total
// operation count used for the progress check. An open stream whose
// producer has finished can still make progress: that producer is a
// momentary source fed from outside the graph (a finished kernel closes
// its streams before it is marked finished).
func (d *DeadlockWatch) frozen() (bool, uint64) {
	clear(d.parked)
	clear(d.finished)
	for _, a := range d.actors {
		if a.Finished.Load() {
			mark(&d.finished, a.ID)
		}
	}
	var ops uint64
	for _, l := range d.links {
		tel := l.Queue.Telemetry()
		ops += tel.Pushes.Load() + tel.Pops.Load()
		if marked(d.finished, l.SrcActor) && !l.Queue.Closed() {
			return false, ops
		}
		if l.Queue.WriterBlockedFor() > 0 {
			mark(&d.parked, l.SrcActor)
		}
		if l.Queue.ReaderStarvedFor() > 0 {
			mark(&d.parked, l.DstActor)
		}
	}
	unfinished := 0
	for _, a := range d.actors {
		// Supervised restarts are progress: a kernel parked on its input
		// while the supervisor restarts it must not trip the freeze check.
		ops += a.Restarts.Load()
		if a.Finished.Load() {
			continue
		}
		unfinished++
		if !marked(d.parked, a.ID) && !a.Parked.Load() {
			return false, ops
		}
	}
	return unfinished > 0, ops
}

// mark sets actor id in a scratch set for this tick, growing it to fit.
func mark(set *[]bool, id int) {
	if id < 0 {
		return
	}
	if id >= len(*set) {
		*set = append(*set, make([]bool, id+1-len(*set))...)
	}
	(*set)[id] = true
}

// marked reports whether actor id is in a scratch set.
func marked(set []bool, id int) bool { return id >= 0 && id < len(set) && set[id] }

// diagnose renders the parked streams for the abort error, and the kernels
// the work-stealing scheduler holds parked.
func (d *DeadlockWatch) diagnose() string {
	var b strings.Builder
	b.WriteString("application deadlocked; parked streams:")
	for _, l := range d.links {
		w := l.Queue.WriterBlockedFor()
		r := l.Queue.ReaderStarvedFor()
		if w == 0 && r == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  %s: len=%d/%d", l.Name, l.Queue.Len(), l.Queue.Cap())
		if w > 0 {
			fmt.Fprintf(&b, " producer blocked %v", w.Round(time.Millisecond))
		}
		if r > 0 {
			fmt.Fprintf(&b, " consumer starved %v", r.Round(time.Millisecond))
		}
	}
	sep := "\n  kernels parked by the scheduler: "
	for _, a := range d.actors {
		if a.Parked.Load() && !a.Finished.Load() {
			b.WriteString(sep + a.Name)
			sep = ", "
		}
	}
	return b.String()
}
