package oar

import (
	"fmt"
	"sync"

	"raftlib/raft"
)

// Remote stages realize the paper's remote kernel execution (§4.1: the oar
// system "provides a means to remotely compile and execute kernels so that
// a user can have a simple compile and forget experience"). A node
// registers named stage factories; a peer splices a registered stage into
// its local topology with RemoteStage, which returns a (sender, receiver)
// kernel pair:
//
//	caller                                      serving node
//	upstream -> Sender ==bridge "<stage>.in#i"==> Receiver -> kernel
//	                                                            |
//	downstream <- Receiver <==bridge "<stage>.out#j"== Sender <-+
//
// The spawn is one service call ("stage:<name>"): the serving node builds
// the kernel, registers the inbound stream, points a sender at the stream
// the caller registered on its own node, and only then replies with the
// inbound stream's name. The data rides the two bridges, so a stage heals a
// cut connection, blits pointer-free elements and carries markers exactly
// as a bridge does, and its lifetime follows the bridge policy. At the end
// of the stream the caller asks how the stage's run ended (keyResult) and
// raises its error, so a failed stage fails the caller's Exe. Go cannot
// compile shipped source at runtime, so factories are registered ahead of
// time — the substitution recorded in DESIGN.md.

// stageService prefixes the service name a stage is registered under.
const stageService = "stage:"

// Request keys RemoteStage adds to the user's args, and the reply key of
// the stage's inbound stream. A request with keyResult answers, once, with
// the error of the instance whose inbound stream it names, once it ends.
const (
	keyReplyAddr   = "oar.stage.reply-addr"
	keyReplyStream = "oar.stage.reply-stream"
	keyStream      = "oar.stage.stream"
	keyResult      = "oar.stage.result"
)

// RegisterStage exposes a kernel factory under name on node n. T and U are
// the stage's input and output element types; the factory must return a
// kernel with exactly one input port of T and one output port of U. Each
// RemoteStage call runs one instance as its own raft application on n.
func RegisterStage[T, U any](n *Node, name string, factory func(args map[string]string) (raft.Kernel, error)) {
	registerStage[T, U](n, name, factory)
}

// registerStage is RegisterStage with options for both bridge endpoints
// the serving node builds.
func registerStage[T, U any](n *Node, name string, factory func(args map[string]string) (raft.Kernel, error), opts ...BridgeOption) {
	var results sync.Map // inbound stream name -> chan error of a running instance
	n.RegisterService(stageService+name, func(req map[string]string) (map[string]string, error) {
		if done, ok := results.LoadAndDelete(req[keyResult]); ok {
			return nil, <-done.(chan error)
		}
		addr, out := req[keyReplyAddr], req[keyReplyStream]
		if addr == "" || out == "" {
			return nil, fmt.Errorf("oar: stage %q: request names no reply stream", name)
		}
		delete(req, keyReplyAddr)
		delete(req, keyReplyStream)
		kernel, err := factory(req)
		if err != nil {
			return nil, err
		}
		recv, err := NewReceiver[T](n, n.freshStream(name+".in"), opts...)
		if err != nil {
			return nil, err
		}
		m := raft.NewMap()
		if _, err := m.Link(recv, kernel); err != nil {
			recv.release()
			return nil, err
		}
		if _, err := m.Link(kernel, NewSender[U](addr, out, opts...)); err != nil {
			recv.release()
			return nil, err
		}
		done := make(chan error, 1)
		results.Store(recv.stream, done)
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_, err := m.Exe()
			done <- err
		}()
		return map[string]string{keyStream: recv.stream}, nil
	})
}

// RemoteStage splices the named registered stage of the node at addr into
// a local topology. The returned sender (input port "in", type T) forwards
// local elements to the remote stage; the returned receiver (output port
// "out", type U) delivers the stage's results. The receiver's stream is
// registered on local, which the serving node dials back.
func RemoteStage[T, U any](local *Node, addr, stage string, args map[string]string) (*Sender[T], *Receiver[U], error) {
	return remoteStage[T, U](local, addr, stage, args)
}

// remoteStage is RemoteStage with options for both local bridge endpoints.
func remoteStage[T, U any](local *Node, addr, stage string, args map[string]string, opts ...BridgeOption) (*Sender[T], *Receiver[U], error) {
	req := make(map[string]string, len(args)+2)
	for k, v := range args {
		if k == keyReplyAddr || k == keyReplyStream || k == keyResult {
			return nil, nil, fmt.Errorf("oar: stage %q: argument %q is reserved", stage, k)
		}
		req[k] = v
	}
	recv, err := NewReceiver[U](local, local.freshStream(stage+".out"), opts...)
	if err != nil {
		return nil, nil, err
	}
	req[keyReplyAddr], req[keyReplyStream] = local.Addr(), recv.stream
	resp, err := Call(addr, stageService+stage, req)
	if err != nil {
		recv.release()
		return nil, nil, fmt.Errorf("oar: stage %q on %s: %w", stage, addr, err)
	}
	in := resp[keyStream]
	send := NewSender[T](addr, in, opts...)
	recv.verdict = func() (err error) {
		if _, err = Call(addr, stageService+stage, map[string]string{keyResult: in}); err != nil {
			// Raised, this fails the execution, which ends the sender's
			// reconnects into the failed stage (Sender.reconnect).
			err = fmt.Errorf("oar: stage %q on %s failed: %w", stage, addr, err)
		}
		return err
	}
	return send, recv, nil
}
