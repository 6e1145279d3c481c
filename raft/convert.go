package raft

import (
	"fmt"
	"reflect"
)

// This file implements the paper's §4.2 link type conversion: "the
// run-time selects the narrowest convertible type for each link type and
// casts the types at each endpoint."
//
// A Link whose endpoint element types differ normally fails type checking.
// With the AllowConvert option, numerically convertible endpoints are
// joined through an auto-inserted cast kernel. The narrowest-type rule is
// honored by placement: the cast sits on the wide side, so the stream
// buffer that carries the configured capacity holds the narrower
// representation (fewer bytes buffered, more cache-able data — the paper's
// motivation).

// AllowConvert permits linking ports whose element types differ but are
// numerically convertible; the runtime inserts a cast kernel.
func AllowConvert() LinkOption { return func(s *linkSpec) { s.convert = true } }

// Converter casts a stream from element type A to element type B,
// preserving synchronized signals. The runtime inserts converters
// automatically for AllowConvert links; NewConverter is exported for
// manual topologies.
type Converter[A, B Number] struct {
	KernelBase
}

// Number is the constraint for convertible link endpoint types.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// NewConverter returns a cast kernel with input port "in" (type A) and
// output port "out" (type B).
func NewConverter[A, B Number]() *Converter[A, B] {
	k := &Converter[A, B]{}
	k.SetName("convert")
	AddInput[A](k, "in")
	AddOutput[B](k, "out")
	return k
}

// Run implements Kernel.
func (c *Converter[A, B]) Run() Status {
	v, sig, err := PopSig[A](c.In("in"))
	if err != nil {
		return Stop
	}
	if err := PushSig(c.Out("out"), B(v), sig); err != nil {
		return Stop
	}
	return Proceed
}

// Clone implements Cloner.
func (c *Converter[A, B]) Clone() Kernel { return NewConverter[A, B]() }

// converterFactories maps (from, to) element types to cast-kernel
// constructors, populated for every numeric type pair at init.
var converterFactories = map[[2]reflect.Type]func() Kernel{}

func registerConverter[A, B Number]() {
	key := [2]reflect.Type{
		reflect.TypeOf((*A)(nil)).Elem(),
		reflect.TypeOf((*B)(nil)).Elem(),
	}
	converterFactories[key] = func() Kernel { return NewConverter[A, B]() }
}

// registerConverterRow registers casts from A to every numeric type.
func registerConverterRow[A Number]() {
	registerConverter[A, int]()
	registerConverter[A, int8]()
	registerConverter[A, int16]()
	registerConverter[A, int32]()
	registerConverter[A, int64]()
	registerConverter[A, uint]()
	registerConverter[A, uint8]()
	registerConverter[A, uint16]()
	registerConverter[A, uint32]()
	registerConverter[A, uint64]()
	registerConverter[A, float32]()
	registerConverter[A, float64]()
}

func init() {
	registerConverterRow[int]()
	registerConverterRow[int8]()
	registerConverterRow[int16]()
	registerConverterRow[int32]()
	registerConverterRow[int64]()
	registerConverterRow[uint]()
	registerConverterRow[uint8]()
	registerConverterRow[uint16]()
	registerConverterRow[uint32]()
	registerConverterRow[uint64]()
	registerConverterRow[float32]()
	registerConverterRow[float64]()
}

// newConverterFor returns a cast kernel for the given endpoint types, or
// an error when no conversion exists.
func newConverterFor(from, to reflect.Type) (Kernel, error) {
	mk, ok := converterFactories[[2]reflect.Type{from, to}]
	if !ok {
		return nil, fmt.Errorf("raft: no conversion from %s to %s", from, to)
	}
	return mk(), nil
}

// convertedLink joins two ports of different numeric types through a cast
// kernel, honoring the narrowest-type placement rule; link stages the two
// halves (Map.Link at construction, Tx.Link in a rewrite). It returns a
// synthetic Link carrying the caller's original endpoints for chaining.
func convertedLink(link func(src, dst Kernel, opts ...LinkOption) (*Link, error),
	src, dst Kernel, sp, dp *Port, spec linkSpec) (*Link, error) {
	conv, err := newConverterFor(sp.Type(), dp.Type())
	if err != nil {
		return nil, err
	}
	// The configured capacity goes to the queue carrying the narrower
	// type; the other side gets a small default buffer.
	wideOpts := []LinkOption{}
	narrowOpts := []LinkOption{Cap(spec.capacity), MaxCap(spec.maxCap)}
	srcSideOpts, dstSideOpts := narrowOpts, wideOpts
	if sp.Type().Size() > dp.Type().Size() {
		srcSideOpts, dstSideOpts = wideOpts, narrowOpts
	}
	srcSideOpts = append(srcSideOpts, From(sp.name), To("in"))
	dstSideOpts = append(dstSideOpts, From("out"), To(dp.name))
	if spec.outOfOrder {
		srcSideOpts = append(srcSideOpts, AsOutOfOrder())
	}
	if spec.lowLatency {
		srcSideOpts = append(srcSideOpts, AsLowLatency())
		dstSideOpts = append(dstSideOpts, AsLowLatency())
	}
	if spec.bestEffort {
		srcSideOpts = append(srcSideOpts, AsBestEffort())
		dstSideOpts = append(dstSideOpts, AsBestEffort())
	}
	if _, err := link(src, conv, srcSideOpts...); err != nil {
		return nil, err
	}
	if _, err := link(conv, dst, dstSideOpts...); err != nil {
		return nil, err
	}
	return &Link{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, linkSpec: spec}, nil
}
