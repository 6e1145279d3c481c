package scheduler

import "sync/atomic"

// Stats is a point-in-time snapshot of a scheduler's internal activity,
// surfaced in Report/LiveStats and as Prometheus counters. All counters are
// cumulative since the first Spawn.
type Stats struct {
	// Scheduler is the implementation's Name().
	Scheduler string
	// Workers is the number of worker goroutines multiplexing kernels
	// (0 for goroutine-per-kernel, which has no worker pool).
	Workers int
	// Steals counts successful steal operations (one per victim raid);
	// StolenTasks counts the kernels moved by them (batched steals move
	// several per raid).
	Steals, StolenTasks uint64
	// Parks counts kernels parked after a Stall to await a link wake;
	// Wakes counts link-transition re-queues of parked kernels; Rescues
	// counts watchdog re-queues (kernels whose stall had no hooked link
	// transition to wake them).
	Parks, Wakes, Rescues uint64
	// CrossShardLinks is the number of links whose producer and consumer
	// were placed on different shards (work-stealing only).
	CrossShardLinks int
}

// counters is the shared mutable counter block behind Stats.
type counters struct {
	steals, stolen, parks, wakes, rescues atomic.Uint64
}

func (c *counters) snapshot(into *Stats) {
	into.Steals = c.steals.Load()
	into.StolenTasks = c.stolen.Load()
	into.Parks = c.parks.Load()
	into.Wakes = c.wakes.Load()
	into.Rescues = c.rescues.Load()
}
