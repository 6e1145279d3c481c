package raft

import (
	"reflect"
	"strconv"

	"raftlib/internal/hook"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

func init() { hook.ProvideQueue = provideQueue }

// Kernel is one compute kernel: a sequentially-written unit of work that
// communicates only through its ports. Implementations embed [KernelBase]
// (which supplies the unexported plumbing method) and define Run.
type Kernel interface {
	// Run performs one unit of work: read from input ports, write to
	// output ports, and return Proceed to be invoked again, Stop when
	// finished, or Stall when no progress is possible yet.
	Run() Status

	// kernelBase is provided by the embedded KernelBase.
	kernelBase() *KernelBase
}

// Cloner is implemented by kernels that can be replicated for data
// parallelism (paper §4.1: "it is often possible to replicate kernels ...
// without altering the application semantics"). Clone must return a fresh
// kernel with identical port declarations and no shared mutable state.
type Cloner interface {
	Clone() Kernel
}

// Initializer is implemented by kernels needing one-time setup before the
// first Run; the runtime calls Init on the kernel's execution resource.
type Initializer interface {
	Init() error
}

// Finalizer is implemented by kernels needing one-time teardown after the
// last Run (e.g. flushing a reduction result).
type Finalizer interface {
	Finalize()
}

// KernelBase supplies the port containers and identity shared by all
// kernels; embed it (by value) in every kernel type.
type KernelBase struct {
	name   string
	weight float64

	// ins and outs hold the ports in declaration order; inPorts and
	// outPorts index them by name once there are more than portScanMax
	// (see lookupPort).
	ins      []*Port
	outs     []*Port
	inPorts  map[string]*Port
	outPorts map[string]*Port

	m *Map // owning map, set by Link

	// Latency-marker carriage (see marker.go): marks is the execution's
	// rig (nil when markers are off), pendingMarks holds markers picked up
	// but not yet forwarded, markForward opts a hook.MarkerCarrier (the
	// bridge endpoints) out of stamping and retirement, and actor is the
	// kernel's trace actor id (set by Exe; used to attribute marker events
	// to kernel tracks). virtual marks a momentary kernel (hook.ProvideQueue).
	marks        *markerRig
	pendingMarks []*trace.Marker
	actor        int32
	markForward  bool
	virtual      bool

	// inline holds the first port declared and refs the backing of ins and
	// outs, so a one-port kernel is one allocation (addPort). spare is room
	// for the ports after the first that the kernel's constructor allocated
	// with it (NewLambda sizes it to the declared ports).
	inline [1]Port
	refs   [2]*Port
	spare  []Port
}

func (k *KernelBase) kernelBase() *KernelBase { return k }

// Name returns the kernel's name (defaulting to its Go type name once it
// joins a Map).
func (k *KernelBase) Name() string { return k.name }

// SetName overrides the kernel's report/debug name.
func (k *KernelBase) SetName(name string) { k.name = name }

// Weight returns the kernel's relative compute-cost estimate used by the
// mapper (default 1).
func (k *KernelBase) Weight() float64 {
	if k.weight <= 0 {
		return 1
	}
	return k.weight
}

// SetWeight sets the mapper cost estimate.
func (k *KernelBase) SetWeight(w float64) { k.weight = w }

// provideQueue is hook.ProvideQueue: kernels.ForEach hands its pre-filled
// ring to its own out port, and streamRings gives the port's link that
// ring instead of allocating one.
func provideQueue(k any, port string, q ringbuffer.Queue) {
	kb := k.(Kernel).kernelBase()
	kb.virtual = true
	kb.Out(port).q = q
}

// In returns the named input port, panicking if it does not exist (a
// kernel-construction bug, analogous to the C++ template failing to
// compile). The panic value is an error wrapping ErrPortNotFound.
func (k *KernelBase) In(name string) *Port {
	p := lookupPort(k.ins, k.inPorts, name)
	if p == nil {
		panic(misuse(ErrPortNotFound, "kernel %q has no input port %q", k.name, name))
	}
	return p
}

// Out returns the named output port, panicking (with an error wrapping
// ErrPortNotFound) if it does not exist.
func (k *KernelBase) Out(name string) *Port {
	p := lookupPort(k.outs, k.outPorts, name)
	if p == nil {
		panic(misuse(ErrPortNotFound, "kernel %q has no output port %q", k.name, name))
	}
	return p
}

// portScanMax is the port count up to which lookupPort compares names in
// declaration order instead of hashing.
const portScanMax = 8

// lookupPort resolves a port name, nil when the kernel has no such port.
// Kernels call In/Out on every invocation — a lambda kernel once per
// element — so the usual case must not hash a string: a kernel has a
// handful of ports, and comparing the name against each is several times
// cheaper than a map probe. Only wide kernels (a 64-way fan-out) pay for
// the map.
func lookupPort(list []*Port, byName map[string]*Port, name string) *Port {
	if len(list) > portScanMax {
		return byName[name]
	}
	for _, p := range list {
		if p.name == name {
			return p
		}
	}
	return nil
}

// InNames returns the input port names in declaration order.
func (k *KernelBase) InNames() []string { return portNames(k.ins) }

// OutNames returns the output port names in declaration order.
func (k *KernelBase) OutNames() []string { return portNames(k.outs) }

func portNames(ports []*Port) []string {
	names := make([]string, len(ports))
	for i, p := range ports {
		names[i] = p.name
	}
	return names
}

// InPorts returns the input ports in declaration order.
func (k *KernelBase) InPorts() []*Port { return append([]*Port(nil), k.ins...) }

// OutPorts returns the output ports in declaration order.
func (k *KernelBase) OutPorts() []*Port { return append([]*Port(nil), k.outs...) }

// InputsDone reports whether every input stream is closed and drained —
// the usual Stop condition for multi-input kernels.
func (k *KernelBase) InputsDone() bool {
	for _, p := range k.ins {
		if p.q == nil || !p.q.Closed() || p.Len() > 0 {
			return false
		}
	}
	return true
}

// retireWindows commits what the kernel has pushed and releases what it has
// popped on every port whose scalar operations run through a port window
// (DESIGN §4.2), so that its neighbours see exactly the stream position the
// kernel is at. It is the runtime's: the ring, the schedulers and the
// supervisor call it, through windowOwner, wherever the kernel stops
// running — before a port operation sleeps, on Stall and Stop, at gate
// pauses, checkpoints and restarts, and after a bounded run time. A kernel
// never needs to; one that waits inside Run on something that is not a
// port (a socket, a channel, a sleep) is covered by the ring itself, where
// every push is published as it is written. It runs on the kernel's own
// goroutine.
func (k *KernelBase) retireWindows() {
	for _, p := range k.outs {
		p.retireWindow()
	}
	for _, p := range k.ins {
		p.retireWindow()
	}
}

// windowOwner is a KernelBase seen as the ring's and the actor's
// ringbuffer.WindowOwner, so that retiring stays off the public surface.
type windowOwner KernelBase

func (o *windowOwner) RetireAll() { (*KernelBase)(o).retireWindows() }

// CloseOutputs closes every output stream, delivering EOF downstream. The
// runtime calls it automatically when the kernel stops.
func (k *KernelBase) CloseOutputs() {
	for _, p := range k.outs {
		p.Close()
	}
}

// closeAllQueues closes inputs and outputs; used during teardown so a
// failed kernel unblocks both its producers and consumers.
func (k *KernelBase) closeAllQueues() {
	k.CloseOutputs()
	for _, p := range k.ins {
		p.Close()
	}
}

// addPort declares a new port, panicking on duplicates (construction bug).
// The port takes the inline slot, then the spare room the kernel was
// allocated with, then the heap. The first list to receive a port is
// backed by refs — all of it, until the other list claims the second
// entry — and either list moves to the heap when it outgrows its share.
// The by-name index exists only for a kernel wider than portScanMax, the
// only one lookupPort hashes for.
func (k *KernelBase) addPort(name string, dir Direction, ops elemOps) *Port {
	list, other, byName, what := &k.ins, &k.outs, &k.inPorts, "input"
	if dir == Out {
		list, other, byName, what = &k.outs, &k.ins, &k.outPorts, "output"
	}
	if lookupPort(*list, *byName, name) != nil {
		panic(misuse(ErrPortInUse, "kernel %q declares %s port %q twice", k.name, what, name))
	}
	var p *Port
	switch {
	case k.inline[0].owner == nil:
		p = &k.inline[0]
	case len(k.spare) > 0:
		p, k.spare = &k.spare[0], k.spare[1:]
	default:
		p = new(Port)
	}
	*p = Port{name: name, dir: dir, ops: ops, owner: k}
	if cap(*list) == 0 {
		switch {
		case cap(*other) == 0:
			*list = k.refs[:0:2]
		case len(*other) == 1 && cap(*other) == 2:
			*other = (*other)[:1:1]
			*list = k.refs[1:1:2]
		}
	}
	*list = append(*list, p)
	switch {
	case len(*list) <= portScanMax:
	case *byName == nil:
		*byName = make(map[string]*Port, len(*list))
		for _, q := range *list {
			(*byName)[q.name] = q
		}
	default:
		(*byName)[p.name] = p
	}
	return p
}

// slotNames name the first numbered ports (lambda, split, merge). The
// linker keeps one copy of a string constant, so the "0" a kernel passes to
// In and its port's name share their bytes, and lookupPort's comparison
// returns at the pointer check.
var slotNames = [...]string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"}

// slotName is the name of numbered port i.
func slotName(i int) string {
	if i < len(slotNames) {
		return slotNames[i]
	}
	return strconv.Itoa(i)
}

// elemOps is what a port knows of its element type: the type itself, how
// to allocate streams' rings, and how to move a frame between two rings of
// it (the runtime's split and merge adapters are built without knowing T).
// ringOps[T] is zero-sized, so a port holds it without an allocation.
type elemOps interface {
	elem() reflect.Type
	// rings returns a supply of n rings whose headers share one array:
	// each call makes the next (capacity as NewRing, growth bound maxCap).
	rings(n int) func(capacity, maxCap int) ringbuffer.Queue
	// move transfers up to max elements from one ring to another as one
	// frame, as many as the destination has room for, and never waits
	// (moveView).
	move(src, dst ringbuffer.Queue, max int) (int, error)
}

type ringOps[T any] struct{}

func (ringOps[T]) elem() reflect.Type { return reflect.TypeFor[T]() }

func (ringOps[T]) rings(n int) func(capacity, maxCap int) ringbuffer.Queue {
	rings := make([]ringbuffer.Ring[T], n)
	return func(capacity, maxCap int) ringbuffer.Queue {
		r := &rings[0]
		rings = rings[1:]
		r.Init(capacity)
		if maxCap > 0 {
			r.SetMaxCap(maxCap)
		}
		return r
	}
}

func (ringOps[T]) move(src, dst ringbuffer.Queue, max int) (int, error) {
	return moveView[T](src, dst, max)
}

// AddInput declares a new input port carrying elements of type T on the
// kernel. Call it from the kernel's constructor (the analogue of the
// paper's input.addPort<T>("name")).
func AddInput[T any](k Kernel, name string) *Port {
	return k.kernelBase().addPort(name, In, ringOps[T]{})
}

// AddOutput declares a new output port carrying elements of type T on the
// kernel (the analogue of output.addPort<T>("name")).
func AddOutput[T any](k Kernel, name string) *Port {
	return k.kernelBase().addPort(name, Out, ringOps[T]{})
}

// kernelName returns the kernel's display name, defaulting to its Go type.
func kernelName(k Kernel) string {
	kb := k.kernelBase()
	if kb.name != "" {
		return kb.name
	}
	t := reflect.TypeOf(k)
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	return t.Name()
}
