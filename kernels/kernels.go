// Package kernels is the standard kernel library accompanying the raft
// runtime: the sources, sinks and adapters the paper introduces in §4.2
// (generate, print, read_each, write_each, the zero-copy for_each, reduce)
// plus the text-search building blocks of §5 (filereader and the search
// kernel with selectable matching algorithm).
package kernels

import (
	"bufio"
	"fmt"
	"io"

	"raftlib/raft"
)

// Generate streams values produced by a function — the paper's generate
// source from Fig. 3 (there, a random-number generator).
type Generate[T any] struct {
	raft.KernelBase
	n     int64
	next  int64
	fn    func(i int64) T
	batch int
	vals  []T
	sigs  []raft.Signal
}

// NewGenerate returns a source kernel pushing fn(0), fn(1), ..., fn(n-1)
// out of port "out". Generate is deliberately NOT cloneable: replicating a
// source would duplicate its sequence; create distinct sources (or shard
// the index range across several Generates) for parallel generation.
func NewGenerate[T any](n int64, fn func(i int64) T) *Generate[T] {
	k := &Generate[T]{n: n, fn: fn}
	k.SetName("generate")
	raft.AddOutput[T](k, "out")
	return k
}

// SetBatch makes each Run produce up to n elements delivered with one bulk
// push (one publish per contiguous run of slots) instead of n element-wise
// pushes. The
// adaptive batcher's per-link hint, when present, overrides n. Returns the
// kernel for chaining.
func (g *Generate[T]) SetBatch(n int) *Generate[T] {
	g.batch = n
	return g
}

// Run implements raft.Kernel.
func (g *Generate[T]) Run() raft.Status {
	if g.next >= g.n {
		return raft.Stop
	}
	out := g.Out("out")
	b := out.BatchHint(g.batch)
	if b <= 1 {
		sig := raft.SigNone
		if g.next == g.n-1 {
			sig = raft.SigEOF
		}
		if err := raft.PushSig(out, g.fn(g.next), sig); err != nil {
			return raft.Stop
		}
		g.next++
		return raft.Proceed
	}
	if rem := g.n - g.next; int64(b) > rem {
		b = int(rem)
	}
	if cap(g.vals) < b {
		g.vals = make([]T, b)
		g.sigs = make([]raft.Signal, b)
	}
	vals, sigs := g.vals[:b], g.sigs[:b]
	for i := range vals {
		vals[i] = g.fn(g.next + int64(i))
		sigs[i] = raft.SigNone
	}
	if g.next+int64(b) == g.n {
		sigs[b-1] = raft.SigEOF
	}
	if err := raft.PushNSig(out, vals, sigs); err != nil {
		return raft.Stop
	}
	g.next += int64(b)
	return raft.Proceed
}

// Print writes each received element to an io.Writer followed by a
// delimiter — the paper's print kernel (Figs. 1, 3).
type Print[T any] struct {
	raft.KernelBase
	w     *bufio.Writer
	delim byte
}

// NewPrint returns a sink kernel printing every element of port "in" to w,
// separated by delim.
func NewPrint[T any](w io.Writer, delim byte) *Print[T] {
	k := &Print[T]{w: bufio.NewWriter(w), delim: delim}
	k.SetName("print")
	raft.AddInput[T](k, "in")
	return k
}

// Run implements raft.Kernel.
func (p *Print[T]) Run() raft.Status {
	v, err := raft.Pop[T](p.In("in"))
	if err != nil {
		return raft.Stop
	}
	fmt.Fprint(p.w, v)
	p.w.WriteByte(p.delim)
	return raft.Proceed
}

// Finalize flushes buffered output.
func (p *Print[T]) Finalize() { p.w.Flush() }

// ReadEach streams the contents of a slice, one element at a time — the
// paper's read_each bridge from C++ containers (§4.2, Fig. 5).
type ReadEach[T any] struct {
	raft.KernelBase
	src   []T
	i     int
	batch int
	sigs  []raft.Signal
}

// NewReadEach returns a source kernel pushing each element of src (copied
// element-wise; see NewForEach for the zero-copy variant) out of port
// "out".
func NewReadEach[T any](src []T) *ReadEach[T] {
	k := &ReadEach[T]{src: src}
	k.SetName("read_each")
	raft.AddOutput[T](k, "out")
	return k
}

// SetBatch makes each Run push up to n consecutive source elements with one
// bulk operation — the source slice feeds PushN directly, no staging copy.
// The adaptive batcher's per-link hint, when present, overrides n. Returns
// the kernel for chaining.
func (r *ReadEach[T]) SetBatch(n int) *ReadEach[T] {
	r.batch = n
	return r
}

// Run implements raft.Kernel.
func (r *ReadEach[T]) Run() raft.Status {
	if r.i >= len(r.src) {
		return raft.Stop
	}
	out := r.Out("out")
	b := out.BatchHint(r.batch)
	if b <= 1 {
		sig := raft.SigNone
		if r.i == len(r.src)-1 {
			sig = raft.SigEOF
		}
		if err := raft.PushSig(out, r.src[r.i], sig); err != nil {
			return raft.Stop
		}
		r.i++
		return raft.Proceed
	}
	if rem := len(r.src) - r.i; b > rem {
		b = rem
	}
	if cap(r.sigs) < b {
		r.sigs = make([]raft.Signal, b)
	}
	sigs := r.sigs[:b]
	for i := range sigs {
		sigs[i] = raft.SigNone
	}
	if r.i+b == len(r.src) {
		sigs[b-1] = raft.SigEOF
	}
	if err := raft.PushNSig(out, r.src[r.i:r.i+b], sigs); err != nil {
		return raft.Stop
	}
	r.i += b
	return raft.Proceed
}

// WriteEach appends every received element to a destination slice — the
// paper's write_each back-inserter bridge (§4.2, Fig. 5). The destination
// is owned by the kernel while the application runs; read it after Exe
// returns.
type WriteEach[T any] struct {
	raft.KernelBase
	dst   *[]T
	batch int
	vals  []T
}

// NewWriteEach returns a sink kernel appending each element of port "in"
// to *dst.
func NewWriteEach[T any](dst *[]T) *WriteEach[T] {
	k := &WriteEach[T]{dst: dst}
	k.SetName("write_each")
	raft.AddInput[T](k, "in")
	return k
}

// SetBatch makes each Run drain up to n elements with one bulk pop before
// appending them. The adaptive batcher's per-link hint, when present,
// overrides n. Returns the kernel for chaining.
func (w *WriteEach[T]) SetBatch(n int) *WriteEach[T] {
	w.batch = n
	return w
}

// Run implements raft.Kernel.
func (w *WriteEach[T]) Run() raft.Status {
	in := w.In("in")
	b := in.BatchHint(w.batch)
	if b <= 1 {
		v, err := raft.Pop[T](in)
		if err != nil {
			return raft.Stop
		}
		*w.dst = append(*w.dst, v)
		return raft.Proceed
	}
	if cap(w.vals) < b {
		w.vals = make([]T, b)
	}
	n, err := raft.PopN[T](in, w.vals[:b])
	if n > 0 {
		*w.dst = append(*w.dst, w.vals[:n]...)
	}
	if err != nil && n == 0 {
		return raft.Stop
	}
	return raft.Proceed
}

// Reduce folds every received element into an accumulator and delivers the
// result when the stream ends — the reduction endpoint of the paper's
// Fig. 6 pipeline.
type Reduce[T any] struct {
	raft.KernelBase
	fn     func(acc, v T) T
	acc    T
	result *T
	batch  int
	vals   []T
}

// NewReduce returns a sink kernel folding port "in" with fn starting from
// init; the final accumulator is stored to *result when the stream closes.
func NewReduce[T any](fn func(acc, v T) T, init T, result *T) *Reduce[T] {
	k := &Reduce[T]{fn: fn, acc: init, result: result}
	k.SetName("reduce")
	raft.AddInput[T](k, "in")
	return k
}

// SetBatch makes each Run pop up to n elements in one bulk operation and
// fold them locally. The adaptive batcher's per-link hint, when present,
// overrides n. Returns the kernel for chaining.
func (r *Reduce[T]) SetBatch(n int) *Reduce[T] {
	r.batch = n
	return r
}

// Run implements raft.Kernel.
func (r *Reduce[T]) Run() raft.Status {
	in := r.In("in")
	b := in.BatchHint(r.batch)
	if b <= 1 {
		v, err := raft.Pop[T](in)
		if err != nil {
			return raft.Stop
		}
		r.acc = r.fn(r.acc, v)
		return raft.Proceed
	}
	if cap(r.vals) < b {
		r.vals = make([]T, b)
	}
	n, err := raft.PopN[T](in, r.vals[:b])
	for _, v := range r.vals[:n] {
		r.acc = r.fn(r.acc, v)
	}
	if err != nil && n == 0 {
		return raft.Stop
	}
	return raft.Proceed
}

// Finalize implements raft.Finalizer, publishing the result.
func (r *Reduce[T]) Finalize() {
	if r.result != nil {
		*r.result = r.acc
	}
}
