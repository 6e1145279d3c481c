package ringbuffer

import "sync/atomic"

// counter64 is an atomic add, for the telemetry that is off the commit path
// or has more than one writer: block times, resizes, evictions and sheds,
// and the view counters both ends advance. The commit path's counters
// (Pushes, the occupancy buckets, Pops) have one writer each and are
// owned.Counters instead.
type counter64 struct {
	v atomic.Uint64
}

func (c *counter64) Add(n uint64) { c.v.Add(n) }
func (c *counter64) Inc()         { c.v.Add(1) }
func (c *counter64) Load() uint64 { return c.v.Load() }
