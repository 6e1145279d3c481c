package owned

import "sync/atomic"

// add stores *v+n into v with a plain MOVQ, writing the atomic.Uint64's
// value word, which is its only field of non-zero size. Under amd64's total
// store order other cores see the owner's stores in program order and never
// torn, so readers' atomic loads need no LOCK prefix on the writer's side.
//
//go:noescape
func add(v *atomic.Uint64, n uint64)
