//go:build !amd64

package owned

import "sync/atomic"

// add stores *v+n into v. Elsewhere than amd64 an atomic store is the
// cheapest store that the memory model orders for readers (a store-release
// on arm64, no read-modify-write anywhere).
func add(v *atomic.Uint64, n uint64) { v.Store(v.Load() + n) }
