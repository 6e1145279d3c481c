package raft

import (
	"fmt"
)

// Map assembles kernels into a streaming topology (the paper's raft::map,
// §4, Fig. 3). Build it with Link calls, then execute with Exe.
type Map struct {
	kernels  []Kernel
	links    []*Link
	exc      exception
	executed bool
	// reg is the registry of the map's execution, once Exe has built it.
	reg *registry
}

// NewMap returns an empty topology.
func NewMap() *Map {
	return &Map{}
}

// Link is one stream connection between two kernels. The paper's link()
// returns a struct with src/dst references for chaining (Fig. 3); Link's
// Src and Dst fields serve the same purpose.
type Link struct {
	// Src and Dst are the connected kernels, re-usable in later Link calls.
	Src, Dst Kernel
	// SrcPort and DstPort are the bound endpoints.
	SrcPort, DstPort *Port

	// linkSpec is what the link's options asked for. Link applies them to
	// it in place: one allocation per link.
	linkSpec
}

// OutOfOrder reports whether the link permits out-of-order processing,
// making the downstream kernel a candidate for automatic replication.
func (l *Link) OutOfOrder() bool { return l.outOfOrder }

// Reorderable reports whether the link permits parallel processing with
// the original order restored downstream.
func (l *Link) Reorderable() bool { return l.reorderable }

// LowLatency reports whether the link is exempt from adaptive batching.
func (l *Link) LowLatency() bool { return l.lowLatency }

// BestEffort reports whether the link runs the drop/latest-wins overflow
// policy instead of producer backpressure.
func (l *Link) BestEffort() bool { return l.bestEffort }

// LinkOption customizes one Link call.
type LinkOption func(*linkSpec)

type linkSpec struct {
	from, to    string
	capacity    int
	maxCap      int
	outOfOrder  bool
	reorderable bool
	lowLatency  bool
	bestEffort  bool
	convert     bool
}

// From selects the source kernel's output port by name (needed when the
// source has more than one unbound output).
func From(port string) LinkOption { return func(s *linkSpec) { s.from = port } }

// To selects the destination kernel's input port by name — the paper's
// third link() argument (e.g. "input_b" in Fig. 3).
func To(port string) LinkOption { return func(s *linkSpec) { s.to = port } }

// Cap sets the stream's initial queue capacity (default 64 elements). The runtime monitor may still
// resize it dynamically.
func Cap(n int) LinkOption { return func(s *linkSpec) { s.capacity = n } }

// MaxCap bounds monitor-driven growth for this stream (the paper's buffer
// cap).
func MaxCap(n int) LinkOption { return func(s *linkSpec) { s.maxCap = n } }

// AsOutOfOrder marks the stream's data as processable out of order,
// enabling automatic replication of the downstream kernel (§4.1: "Streams
// that can be processed out of order are ideal candidates for the run-time
// to automatically parallelize", "indicated by the user at link type").
func AsOutOfOrder() LinkOption { return func(s *linkSpec) { s.outOfOrder = true } }

// AsLowLatency marks the stream as latency-priority: consumers need each
// element as soon as it exists, so the adaptive batcher pins the link's
// transfer batch size at 1 and never grows it (WithAdaptiveBatching's
// per-link escape hatch). Bulk operations still work on the stream; only
// the monitor's batching decisions are bypassed.
func AsLowLatency() LinkOption { return func(s *linkSpec) { s.lowLatency = true } }

// AsBestEffort opts the stream out of producer backpressure: when the
// queue is full, elements are discarded instead of blocking the producer.
// The ring evicts the oldest buffered elements (latest-wins — the consumer
// always sees the freshest suffix, the natural policy for monitoring/
// sampling streams), and sheds the incoming ones only while its head is
// pinned by a signal or a borrowed view. Drops are counted in the link's
// Dropped telemetry — surfaced in Report, live stats and Prometheus — and
// signal-carrying elements (SigEOF etc.) are never dropped, so stream
// teardown stays reliable. Latency is bounded; delivery is not.
func AsBestEffort() LinkOption { return func(s *linkSpec) { s.bestEffort = true } }

// AsReorderable marks the stream's data as processable out of order with
// the original order restored downstream — the paper's third mode (§4.1:
// kernels that "can process the data out of order and re-order at some
// later time"). The replicated kernel must be 1:1 (exactly one output
// element per input element); the runtime uses deterministic round-robin
// split and merge adapters, which restore global order without sequence
// tags. Reorderable groups run at a fixed width (the monitor cannot
// change the replica count mid-run).
func AsReorderable() LinkOption {
	return func(s *linkSpec) { s.reorderable = true }
}

// add registers a kernel with the map (idempotent), assigning its default
// name. A kernel belongs to the map once its owner is set.
func (m *Map) add(k Kernel) error {
	kb := k.kernelBase()
	if kb.m == m {
		return nil
	}
	if kb.m != nil {
		return fmt.Errorf("raft: kernel %q already belongs to another map", kernelName(k))
	}
	kb.m = m
	if kb.name == "" {
		kb.name = fmt.Sprintf("%s#%d", kernelName(k), len(m.kernels))
	}
	m.kernels = append(m.kernels, k)
	return nil
}

// Link connects an output port of src to an input port of dst. Ports are
// inferred when unambiguous (a kernel with exactly one unbound output or
// input) and selected with From/To otherwise. Element types are checked
// immediately; a mismatch is an error, the library's stand-in for the C++
// template compile error.
func (m *Map) Link(src, dst Kernel, opts ...LinkOption) (*Link, error) {
	l := &Link{}
	for _, o := range opts {
		o(&l.linkSpec)
	}
	if src == nil || dst == nil {
		return nil, fmt.Errorf("raft: Link requires non-nil kernels")
	}
	if err := m.add(src); err != nil {
		return nil, err
	}
	if err := m.add(dst); err != nil {
		return nil, err
	}
	unbound := func(p *Port) bool { return !p.Bound() }
	sp, err := pickPort(src.kernelBase(), Out, l.from, unbound, "")
	if err != nil {
		return nil, err
	}
	dp, err := pickPort(dst.kernelBase(), In, l.to, unbound, "")
	if err != nil {
		return nil, err
	}
	if sp.Type() != dp.Type() {
		if l.convert {
			return convertedLink(m.Link, src, dst, sp, dp, l.linkSpec)
		}
		return nil, fmt.Errorf("raft: %w linking %s -> %s (AllowConvert permits numeric casts)", ErrTypeMismatch, sp, dp)
	}
	l.Src, l.Dst, l.SrcPort, l.DstPort = src, dst, sp, dp
	sp.link = l
	dp.link = l
	m.links = append(m.links, l)
	return l, nil
}

// MustLink is Link that panics on error, for topology-construction code
// where a linking mistake is a programming bug.
func (m *Map) MustLink(src, dst Kernel, opts ...LinkOption) *Link {
	l, err := m.Link(src, dst, opts...)
	if err != nil {
		panic(err)
	}
	return l
}

// pickPort resolves the port to bind: the named one, or the single free
// port in the given direction. free says whether a port is free: unbound
// for Map.Link, neither live nor staged for Tx.Link, which names the
// remedy for a taken port.
func pickPort(kb *KernelBase, dir Direction, name string, free func(*Port) bool, remedy string) (*Port, error) {
	list, byName := kb.outs, kb.outPorts
	if dir == In {
		list, byName = kb.ins, kb.inPorts
	}
	if name != "" {
		p := lookupPort(list, byName, name)
		if p == nil {
			return nil, fmt.Errorf("raft: kernel %q has no %s port %q: %w", kb.name, dir, name, ErrPortNotFound)
		}
		if !free(p) {
			return nil, fmt.Errorf("raft: port %s is already linked%s: %w", p, remedy, ErrPortInUse)
		}
		return p, nil
	}
	var first *Port
	n := 0
	for _, p := range list {
		if free(p) {
			if n == 0 {
				first = p
			}
			n++
		}
	}
	switch n {
	case 1:
		return first, nil
	case 0:
		return nil, fmt.Errorf("raft: kernel %q has no free %s port: %w", kb.name, dir, ErrPortNotFound)
	default:
		return nil, fmt.Errorf("raft: kernel %q has %d free %s ports; select one with %s",
			kb.name, n, dir, fromOrTo(dir))
	}
}

func fromOrTo(dir Direction) string {
	if dir == In {
		return "To(...)"
	}
	return "From(...)"
}

// Kernels returns the kernels registered so far, in registration order.
func (m *Map) Kernels() []Kernel { return append([]Kernel(nil), m.kernels...) }

// Links returns the links created so far, in creation order.
func (m *Map) Links() []*Link { return append([]*Link(nil), m.links...) }
