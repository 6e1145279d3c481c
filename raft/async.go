package raft

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// This file implements the paper's asynchronous signaling pathway (§4.2):
// "Asynchronous signaling (i.e., immediately available to downstream
// kernels) is also available. Future implementations will utilize the
// asynchronous signaling pathway for global exception handling." Both the
// pathway and the global exception handling it enables are provided.
//
// Synchronized signals ride the stream with their data element (PushSig /
// PopSig); an asynchronous signal posted on a port is visible to the
// opposite endpoint on its very next check, regardless of how many
// elements are still buffered between them.

// asyncCell is the out-of-band mailbox shared by a link's two ports.
type asyncCell struct {
	v atomic.Uint32
}

// SendAsync posts an asynchronous signal on the port's stream; it
// overwrites any signal not yet consumed (signals are level, not queued).
func (p *Port) SendAsync(s Signal) {
	if p.ls == nil {
		panic(misuse(ErrPortUnbound, "SendAsync on unbound port %s", p))
	}
	p.ls.async.v.Store(uint32(s))
}

// RecvAsync consumes a pending asynchronous signal on the port's stream;
// ok is false when none is pending.
func (p *Port) RecvAsync() (Signal, bool) {
	if p.ls == nil {
		return SigNone, false
	}
	s := Signal(p.ls.async.v.Swap(uint32(SigNone)))
	return s, s != SigNone
}

// PeekAsync returns a pending asynchronous signal without consuming it.
func (p *Port) PeekAsync() Signal {
	if p.ls == nil {
		return SigNone
	}
	return Signal(p.ls.async.v.Load())
}

// exception is the map-global error latch behind KernelBase.Raise, and
// the failure signal behind KernelBase.Failed.
type exception struct {
	mu       sync.Mutex
	err      error
	abort    func()
	once     sync.Once
	failed   chan struct{} // closed by fail
	failOnce sync.Once
}

// fail marks the execution failed.
func (e *exception) fail() { e.failOnce.Do(func() { close(e.failed) }) }

// Failed returns a channel that is closed once the kernel's execution has
// failed: a kernel raised (Raise) or ended with an error (a failed Init, a
// panic no supervisor absorbed), or the deadlock watch aborted the run. A
// kernel that waits on something other than its ports — a socket, a peer,
// a timer — selects on it, so it stops waiting for a run that is lost.
// It is nil (never ready) for a kernel linked into no Map.
func (k *KernelBase) Failed() <-chan struct{} {
	if k.m == nil {
		return nil
	}
	return k.m.exc.failed
}

// Raise delivers a global exception from inside a kernel: the first raised
// error is recorded, every stream in the application is force-closed so
// all kernels unblock and stop, and Map.Exe returns the error. Raise is
// safe to call from any kernel goroutine; subsequent raises are ignored.
func (k *KernelBase) Raise(err error) {
	if err == nil || k.m == nil {
		return
	}
	exc := &k.m.exc
	exc.mu.Lock()
	if exc.err == nil {
		exc.err = fmt.Errorf("raft: kernel %q raised: %w", k.Name(), err)
	}
	abort := exc.abort
	exc.mu.Unlock()
	exc.fail()
	if abort != nil {
		exc.once.Do(abort)
	}
}

// raisedError returns the recorded exception, if any.
func (m *Map) raisedError() error {
	m.exc.mu.Lock()
	defer m.exc.mu.Unlock()
	return m.exc.err
}

// setAbort installs the teardown used when a kernel raises.
func (m *Map) setAbort(abort func()) {
	m.exc.mu.Lock()
	m.exc.abort = abort
	m.exc.mu.Unlock()
}
