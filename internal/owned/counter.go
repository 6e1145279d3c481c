// Package owned provides Counter, a counter with exactly one writer at a
// time, for the per-invocation and per-commit telemetry of the runtime's hot
// paths (DESIGN §6.3).
//
// An atomic add is a locked instruction: on amd64 a LOCK XADD, a full
// barrier that drains the writer's store buffer, including the stores its
// kernel just made to lines another core holds. A counter that one goroutine
// writes needs none of that. Its owner loads the value and stores the sum;
// readers on other goroutines load it atomically and see a value at most one
// store behind. The package imports only sync/atomic, so that both
// internal/stats and internal/ringbuffer may use it.
package owned

import "sync/atomic"

// Counter is a monotonically increasing uint64 that only its owner adds to.
// The owner may change goroutines (a kernel that a work-stealing worker
// steals) as long as the handover orders the old owner's last Add before
// the new owner's first. Any goroutine may Load. Two goroutines that Add
// concurrently lose counts: a counter with a second writer belongs on an
// atomic add. The zero value is ready to use; the storage is an
// atomic.Uint64, so it stays 8-byte aligned on 32-bit targets.
type Counter struct {
	v atomic.Uint64
}

// Add adds n. Only the counter's owner may call it.
func (c *Counter) Add(n uint64) { add(&c.v, n) }

// Load returns the counter's value; safe from any goroutine.
func (c *Counter) Load() uint64 { return c.v.Load() }
