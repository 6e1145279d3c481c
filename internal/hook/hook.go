// Package hook holds the side doors by which the module's own kernels
// reach the raft runtime, kept off raft's public surface: the oar bridge
// endpoints publish on the trace bus and carry latency markers over the
// wire, and kernels.ForEach hands over its pre-filled ring. raft asserts
// the interfaces when it builds a kernel and installs ProvideQueue when
// it is initialised. A program outside the module can import none of it.
package hook

import (
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

// TraceAttacher is implemented by kernels that run their own event loops
// and publish lifecycle transitions on the run's trace bus. raft calls
// AttachTrace when it builds the kernel, if tracing is on.
type TraceAttacher interface {
	AttachTrace(rec *trace.Recorder, actor int32)
}

// MarkerCarrier is implemented by kernels that carry latency markers over
// a transport of their own. raft hands the kernel its Markers when it
// builds it; a carrier neither stamps fresh markers, even when it looks
// like a source, nor retires picked-up ones, even when it looks like a
// sink.
type MarkerCarrier interface {
	CarryMarkers(m Markers)
}

// Markers are a carrier kernel's own marker operations.
type Markers interface {
	// Take removes and returns the markers the kernel has picked up but
	// not yet forwarded (nil when none).
	Take() []*trace.Marker
	// Deposit parks carried markers on the kernel's first marker-enabled
	// output lane; a no-op when markers are off in the execution (the
	// markers are dropped, never the elements).
	Deposit(ms []*trace.Marker)
}

// ProvideQueue makes the raft kernel k momentary: never scheduled, its
// output port named port is the pre-filled ring q (a *ringbuffer.Ring of
// the port's element type), which the runtime hands downstream as is
// (§4.2: the for_each source "appears as a kernel only momentarily").
// raft installs it.
var ProvideQueue func(k any, port string, q ringbuffer.Queue)
