package kernels

import (
	"raftlib/internal/hook"
	"raftlib/internal/ringbuffer"
	"raftlib/raft"
)

// ForEach is the paper's zero-copy array source (§4.2, Fig. 6): "The
// for_each takes a pointer value and uses its memory space directly as a
// queue for downstream compute kernels ... When this kernel is executed,
// it appears as a kernel only momentarily."
//
// The Go realization: the constructor hands the runtime (hook.ProvideQueue)
// a read-only ring whose storage aliases the caller's slice — downstream
// kernels that use PeekRange read the caller's array with no copy at all.
// The kernel itself is virtual (never scheduled).
type ForEach[T any] struct {
	raft.KernelBase
}

// NewForEach returns the zero-copy source for data, exposed on port "out".
func NewForEach[T any](data []T) *ForEach[T] {
	k := &ForEach[T]{}
	k.SetName("for_each")
	raft.AddOutput[T](k, "out")
	hook.ProvideQueue(k, "out", ringbuffer.NewRingFromSlice(data))
	return k
}

// Run implements raft.Kernel; it never executes (the kernel is virtual)
// and exists to satisfy the interface.
func (f *ForEach[T]) Run() raft.Status { return raft.Stop }
