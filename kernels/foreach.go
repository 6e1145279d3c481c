package kernels

import (
	"raftlib/internal/ringbuffer"
	"raftlib/raft"
)

// ForEach is the paper's zero-copy array source (§4.2, Fig. 6): "The
// for_each takes a pointer value and uses its memory space directly as a
// queue for downstream compute kernels ... When this kernel is executed,
// it appears as a kernel only momentarily."
//
// The Go realization: the kernel implements raft.QueueProvider, handing
// the runtime a read-only ring whose storage aliases the caller's slice —
// downstream kernels that use PeekRange read the caller's array with no
// copy at all. The kernel itself is virtual (never scheduled).
type ForEach[T any] struct {
	raft.KernelBase
	data []T
}

// NewForEach returns the zero-copy source for data, exposed on port "out".
func NewForEach[T any](data []T) *ForEach[T] {
	k := &ForEach[T]{data: data}
	k.SetName("for_each")
	k.SetVirtual(true)
	raft.AddOutput[T](k, "out")
	return k
}

// ProvideQueue implements raft.QueueProvider with a slice-backed ring.
func (f *ForEach[T]) ProvideQueue(port string) (ringbuffer.Queue, bool) {
	if port != "out" {
		return nil, false
	}
	return ringbuffer.NewRingFromSlice(f.data), true
}

// Run implements raft.Kernel; it never executes (the kernel is virtual)
// and exists to satisfy the interface.
func (f *ForEach[T]) Run() raft.Status { return raft.Stop }
