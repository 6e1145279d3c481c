package raft

import "time"

// LambdaKernel is a compute kernel defined by a plain function instead of
// a named type, eliminating the declaration boiler-plate (§4.2, Fig. 7:
// "RaftLib brings lambda compute kernels, which give the user the ability
// to declare a fully functional, independent kernel while freeing him/her
// from the cruft"). Ports are named sequentially from "0", exactly as in
// the paper.
//
// State captured by the function is subject to the same caveat the paper
// gives: capturing external values by reference yields undefined behavior
// if the kernel is replicated. Replication of lambda kernels therefore
// requires an explicit maker via NewLambdaCloneable.
type LambdaKernel struct {
	KernelBase
	fn func(k *LambdaKernel) Status
	mk func() *LambdaKernel // non-nil for cloneable lambdas
}

// Run implements Kernel by invoking the wrapped function.
func (l *LambdaKernel) Run() Status { return l.fn(l) }

// NewLambda builds a kernel with nIn input and nOut output ports, all of
// element type T (the paper's single-template-parameter form: "If a single
// type is provided as a template parameter, then all ports for this lambda
// kernel are assumed to have this type"). Ports are named "0", "1", ....
// fn is called repeatedly by the runtime with the kernel itself, giving it
// access to In("0"), Out("0"), etc.
func NewLambda[T any](nIn, nOut int, fn func(k *LambdaKernel) Status) *LambdaKernel {
	l := newLambda(nIn+nOut, fn)
	for i := 0; i < nIn; i++ {
		AddInput[T](l, slotName(i))
	}
	for i := 0; i < nOut; i++ {
		AddOutput[T](l, slotName(i))
	}
	return l
}

// NewLambdaIO builds a lambda kernel whose nIn input ports carry I and
// whose nOut output ports carry O (the two-template-parameter form).
func NewLambdaIO[I, O any](nIn, nOut int, fn func(k *LambdaKernel) Status) *LambdaKernel {
	l := newLambda(nIn+nOut, fn)
	for i := 0; i < nIn; i++ {
		AddInput[I](l, slotName(i))
	}
	for i := 0; i < nOut; i++ {
		AddOutput[O](l, slotName(i))
	}
	return l
}

// newLambda allocates a lambda kernel of ports ports: the first port lives
// in its KernelBase, and a second one in the same allocation (spare), so a
// kernel of one or two ports carries those and no others.
func newLambda(ports int, fn func(k *LambdaKernel) Status) *LambdaKernel {
	var l *LambdaKernel
	if ports == 2 {
		x := new(struct {
			LambdaKernel
			more [1]Port
		})
		l, x.spare = &x.LambdaKernel, x.more[:]
	} else {
		l = new(LambdaKernel)
	}
	l.fn, l.name = fn, "lambdak"
	return l
}

// cloneableLambda wraps a LambdaKernel with a maker so the runtime can
// replicate it safely.
type cloneableLambda struct {
	*LambdaKernel
}

// Clone implements Cloner by invoking the maker for a fresh kernel (fresh
// closure state, fresh ports).
func (c *cloneableLambda) Clone() Kernel {
	return &cloneableLambda{c.mk()}
}

// NewLambdaCloneable makes a lambda kernel eligible for automatic
// replication: make must build a fresh, state-independent LambdaKernel on
// every call (each replica gets its own closure state, avoiding the
// by-reference capture hazard the paper describes).
func NewLambdaCloneable(make func() *LambdaKernel) Kernel {
	l := make()
	l.mk = make
	return &cloneableLambda{l}
}

// nanotime returns a monotonic timestamp in nanoseconds for cheap interval
// measurement inside kernels.
func nanotime() int64 { return time.Now().UnixNano() }
