package raft

import (
	"raftlib/internal/core"
	"raftlib/internal/ringbuffer"
)

// Status is returned by a kernel's Run method to tell the scheduler how to
// proceed.
type Status = core.Status

// Kernel run statuses (the paper's raft::kstatus values, plus Stall for
// cooperative schedulers).
const (
	// Proceed requests another Run invocation (raft::proceed).
	Proceed = core.Proceed
	// Stop marks the kernel finished (raft::stop).
	Stop = core.Stop
	// Stall tells a cooperative scheduler the kernel cannot progress yet.
	Stall = core.Stall
)

// Signal is an in-band message synchronized with a stream element (§4.2 of
// the paper). Signals ride the FIFO: a downstream kernel receives the
// signal exactly when it receives the corresponding data element.
type Signal = ringbuffer.Signal

// Predefined signals.
const (
	// SigNone is the default (absent) signal.
	SigNone = ringbuffer.SigNone
	// SigEOF marks the final element of a stream (end-of-file).
	SigEOF = ringbuffer.SigEOF
	// SigTerm requests immediate termination.
	SigTerm = ringbuffer.SigTerm
	// SigUser is the first application-defined signal value.
	SigUser = ringbuffer.SigUser
)

// ErrClosed is returned by port operations once a stream has been closed by
// its producer and drained (reads), or closed outright (writes). Kernels
// typically translate it into Stop.
var ErrClosed = ringbuffer.ErrClosed
