package kernels

import "raftlib/raft"

// This file provides the generic stream adapters that round out the
// standard kernel library: the small composable pieces (filter, transform,
// duplicate) a stream programmer reaches for between the domain kernels.
// Each is a plain kernel over typed ports; the stateless ones are
// cloneable so the runtime may replicate them.

// Filter passes through only the elements satisfying a predicate.
type Filter[T any] struct {
	raft.KernelBase
	pred func(T) bool
}

// NewFilter returns a kernel forwarding elements of port "in" to port
// "out" when pred returns true. pred must be pure: Filter is cloneable.
func NewFilter[T any](pred func(T) bool) *Filter[T] {
	k := &Filter[T]{pred: pred}
	k.SetName("filter")
	raft.AddInput[T](k, "in")
	raft.AddOutput[T](k, "out")
	return k
}

// Run implements raft.Kernel.
func (f *Filter[T]) Run() raft.Status {
	v, sig, err := raft.PopSig[T](f.In("in"))
	if err != nil {
		return raft.Stop
	}
	if !f.pred(v) {
		return raft.Proceed
	}
	if err := raft.PushSig(f.Out("out"), v, sig); err != nil {
		return raft.Stop
	}
	return raft.Proceed
}

// Clone implements raft.Cloner.
func (f *Filter[T]) Clone() raft.Kernel { return NewFilter(f.pred) }

// Transform applies a function to every element (the streaming map).
type Transform[T, U any] struct {
	raft.KernelBase
	fn func(T) U
}

// NewTransform returns a kernel applying fn to each element of port "in"
// and emitting the result on port "out". fn must be pure: Transform is
// cloneable.
func NewTransform[T, U any](fn func(T) U) *Transform[T, U] {
	k := &Transform[T, U]{fn: fn}
	k.SetName("transform")
	raft.AddInput[T](k, "in")
	raft.AddOutput[U](k, "out")
	return k
}

// Run implements raft.Kernel.
func (t *Transform[T, U]) Run() raft.Status {
	v, sig, err := raft.PopSig[T](t.In("in"))
	if err != nil {
		return raft.Stop
	}
	if err := raft.PushSig(t.Out("out"), t.fn(v), sig); err != nil {
		return raft.Stop
	}
	return raft.Proceed
}

// Clone implements raft.Cloner.
func (t *Transform[T, U]) Clone() raft.Kernel { return NewTransform(t.fn) }

// Tee duplicates every element to all of its outputs — explicit fan-out
// (a stream port connects exactly one producer to one consumer, so
// broadcast requires a copy kernel).
type Tee[T any] struct {
	raft.KernelBase
}

// NewTee returns a kernel copying each element of port "in" to output
// ports "0".."width-1".
func NewTee[T any](width int) *Tee[T] {
	if width < 1 {
		panic("kernels: NewTee width must be >= 1")
	}
	k := &Tee[T]{}
	k.SetName("tee")
	raft.AddInput[T](k, "in")
	for i := 0; i < width; i++ {
		raft.AddOutput[T](k, itoa(i))
	}
	return k
}

// Run implements raft.Kernel.
func (t *Tee[T]) Run() raft.Status {
	v, sig, err := raft.PopSig[T](t.In("in"))
	if err != nil {
		return raft.Stop
	}
	for _, out := range t.OutPorts() {
		if err := raft.PushSig(out, v, sig); err != nil {
			return raft.Stop
		}
	}
	return raft.Proceed
}

// itoa converts small non-negative ints without strconv.
func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return itoa(i/10) + string(rune('0'+i%10))
}
