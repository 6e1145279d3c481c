package oar

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"time"

	"raftlib/raft"
)

// Remote stages realize the paper's remote kernel execution (§4.1: the oar
// system "provides a means to remotely compile and execute kernels so that
// a user can have a simple compile and forget experience"). A node
// registers named stage factories; a peer splices a registered stage into
// its local topology with RemoteStage, which returns a (sender, receiver)
// kernel pair:
//
//	local upstream -> sender ==tcp==> [recv -> kernel -> send] ==tcp==> receiver -> local downstream
//
// The remote half runs as a full raft application on the serving node, one
// instance per RemoteStage call, full-duplex on a single TCP connection.
// Go cannot compile shipped source at runtime, so factories are registered
// ahead of time — the substitution recorded in DESIGN.md.

// stageHdr is the connection header kind for stage spawns.
const stageHdr = "spawn"

// frame is one stage wire batch. Stage connections are not self-healing
// (the bridge's sequenced binary frames are), so a plain gob batch struct
// suffices.
type frame[T any] struct {
	Vals []T
	Sigs []raft.Signal
	EOF  bool
}

// RegisterStage exposes a kernel factory under name on node n. T and U are
// the stage's input and output element types; the factory must return a
// kernel with exactly one input port of T and one output port of U.
func RegisterStage[T, U any](n *Node, name string, factory func(args map[string]string) (raft.Kernel, error)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stages[name] = func(conn net.Conn, br *bufio.Reader) {
		serveStageConn[T, U](conn, br, factory)
	}
}

// serveStageConn runs one remote stage instance over an accepted
// connection.
func serveStageConn[T, U any](conn net.Conn, br *bufio.Reader, factory func(args map[string]string) (raft.Kernel, error)) {
	defer conn.Close()
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(conn)
	var args map[string]string
	if err := dec.Decode(&args); err != nil {
		return
	}
	kernel, err := factory(args)
	if err != nil {
		// Closing without an ack tells the peer the spawn failed.
		return
	}
	// Ack the spawn so the caller can distinguish setup errors.
	if err := enc.Encode(true); err != nil {
		return
	}

	src := newGobSource[T]("stage-recv", dec)
	sink := newGobSink[U]("stage-send", enc)
	m := raft.NewMap()
	if _, err := m.Link(src, kernel); err != nil {
		return
	}
	if _, err := m.Link(kernel, sink); err != nil {
		return
	}
	_, _ = m.Exe() // errors surface to the peer as a closed connection
}

// gobSource pushes each decoded frame's elements, with their signals, out
// of its "out" port until the peer's EOF frame or a read error. It is both
// the remote stage's intake and the local receiver of its results.
type gobSource[T any] struct {
	raft.KernelBase
	dec *gob.Decoder
}

func newGobSource[T any](name string, dec *gob.Decoder) *gobSource[T] {
	s := &gobSource[T]{dec: dec}
	s.SetName(name)
	raft.AddOutput[T](s, "out")
	return s
}

func (s *gobSource[T]) Run() raft.Status {
	var f frame[T]
	if err := s.dec.Decode(&f); err != nil || f.EOF {
		return raft.Stop
	}
	if err := raft.PushNSig(s.Out("out"), f.Vals, f.Sigs); err != nil {
		return raft.Stop
	}
	return raft.Proceed
}

// gobSink encodes what its "in" port holds as frames of up to senderBatch
// elements, each element with its signal, and an EOF frame once the stream
// closes. It is both the local sender to a remote stage and the stage's
// return path.
type gobSink[T any] struct {
	raft.KernelBase
	enc  *gob.Encoder
	vals []T
	sigs []raft.Signal
}

func newGobSink[T any](name string, enc *gob.Encoder) *gobSink[T] {
	s := &gobSink[T]{enc: enc, vals: make([]T, senderBatch), sigs: make([]raft.Signal, senderBatch)}
	s.SetName(name)
	raft.AddInput[T](s, "in")
	return s
}

func (s *gobSink[T]) Run() raft.Status {
	n, err := raft.PopNSig(s.In("in"), s.vals, s.sigs)
	if n > 0 {
		if s.enc.Encode(frame[T]{Vals: s.vals[:n], Sigs: s.sigs[:n]}) != nil {
			return raft.Stop
		}
	}
	if err != nil {
		_ = s.enc.Encode(frame[T]{EOF: true})
		return raft.Stop
	}
	return raft.Proceed
}

// RemoteStage splices the named registered stage of the node at addr into
// a local topology. The returned sender kernel (input port "in", type T)
// forwards local elements to the remote stage; the returned receiver
// kernel (output port "out", type U) delivers the stage's results.
func RemoteStage[T, U any](addr, stage string, args map[string]string) (raft.Kernel, raft.Kernel, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, nil, fmt.Errorf("oar: stage dial %s: %w", addr, err)
	}
	if _, err := fmt.Fprintf(conn, "%s %s\n", stageHdr, stage); err != nil {
		conn.Close()
		return nil, nil, err
	}
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if args == nil {
		args = map[string]string{}
	}
	if err := enc.Encode(args); err != nil {
		conn.Close()
		return nil, nil, err
	}
	var ok bool
	if err := dec.Decode(&ok); err != nil || !ok {
		conn.Close()
		return nil, nil, fmt.Errorf("oar: node %s rejected stage %q (unregistered or factory error)", addr, stage)
	}

	return newGobSink[T]("remote-stage-send["+stage+"]", enc),
		newGobSource[U]("remote-stage-recv["+stage+"]", dec), nil
}
