// Package oar implements RaftLib's distributed runtime substrate, the
// system the paper calls "oar" (§4.1): "a mesh of network clients that
// continually feed system information to each other. This information is
// provided to RaftLib in order to continuously optimize and monitor Raft
// kernels executing on multiple systems. The 'oar' system also provides a
// means to remotely compile and execute kernels."
//
// Three capabilities are provided over real TCP sockets:
//
//   - a gossip mesh: nodes join each other, periodically exchange NodeInfo
//     (address, core count, stamp) and expose the merged view; nothing
//     places a kernel by it yet;
//   - stream bridges: a sender/receiver kernel pair that tunnels a raft
//     stream over a TCP connection in sequenced binary frames, so a
//     topology can be split across processes without changing any kernel
//     code;
//   - remote execution: nodes register named services that peers invoke
//     with a request/response exchange — the stand-in for the paper's
//     remote compile-and-execute (shipping Go source and compiling
//     remotely is out of scope; see DESIGN.md substitutions). A remote
//     stage is one such service whose data rides two bridges, one each
//     way, so it has no wire of its own (stage.go).
//
// Benchmarks and examples run nodes on loopback addresses: identical code
// paths (dial, accept, frame, serialize), one machine.
package oar

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// NodeInfo is the gossiped description of one mesh node.
type NodeInfo struct {
	ID    string
	Addr  string
	Cores int
	// Stamp is the publisher's wall-clock at publication; newer wins.
	Stamp time.Time
}

// connection header kinds (first line of every inbound connection).
const (
	hdrGossip  = "gossip"
	hdrStream  = "stream"
	hdrService = "service"
)

// Node is one member of the oar mesh.
type Node struct {
	id string
	ln net.Listener

	mu       sync.Mutex
	peers    map[string]NodeInfo
	self     NodeInfo
	streams  map[string]chan net.Conn
	services map[string]ServiceFunc
	closed   bool
	// fresh numbers the streams this node names itself (freshStream).
	fresh atomic.Uint64

	wg       sync.WaitGroup
	stopOnce sync.Once
	stopCh   chan struct{}
}

// ServiceFunc handles one remote invocation: it receives the request
// payload and returns the response payload (both arbitrary gob-encodable
// maps keep the wire format simple).
type ServiceFunc func(req map[string]string) (map[string]string, error)

// NewNode starts a node listening on addr ("127.0.0.1:0" picks a free
// port).
func NewNode(id, addr string) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("oar: listen: %w", err)
	}
	n := &Node{
		id:       id,
		ln:       ln,
		peers:    map[string]NodeInfo{},
		streams:  map[string]chan net.Conn{},
		services: map[string]ServiceFunc{},
		stopCh:   make(chan struct{}),
	}
	n.self = NodeInfo{ID: id, Addr: ln.Addr().String(), Cores: runtime.GOMAXPROCS(0), Stamp: time.Now()}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.id }

// Addr returns the listening address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Peers returns the current merged view of the mesh (excluding self).
func (n *Node) Peers() []NodeInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeInfo, 0, len(n.peers))
	for _, p := range n.peers {
		out = append(out, p)
	}
	return out
}

// Close shuts the node down and waits for its goroutines.
func (n *Node) Close() {
	n.stopOnce.Do(func() {
		close(n.stopCh)
		n.mu.Lock()
		n.closed = true
		n.mu.Unlock()
		n.ln.Close()
	})
	n.wg.Wait()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handle(conn)
		}()
	}
}

// handle demultiplexes one inbound connection by its header line.
func (n *Node) handle(conn net.Conn) {
	br := bufio.NewReader(conn)
	header, err := br.ReadString('\n')
	if err != nil {
		conn.Close()
		return
	}
	var kind, arg string
	var gen uint64 // stream headers only: the sender's connection generation
	fmt.Sscanf(header, "%s %s %d", &kind, &arg, &gen)
	switch kind {
	case hdrGossip:
		n.serveGossip(conn, br)
	case hdrStream:
		n.serveStream(conn, br, arg, gen)
	case hdrService:
		n.serveService(conn, br, arg)
	default:
		conn.Close()
	}
}

// --- gossip ---

// gossipMsg is one direction of a gossip exchange.
type gossipMsg struct {
	From  NodeInfo
	Known []NodeInfo
}

// serveGossip answers one gossip exchange: read the peer's view, merge,
// send back ours.
func (n *Node) serveGossip(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(conn)
	var in gossipMsg
	if err := dec.Decode(&in); err != nil {
		return
	}
	n.merge(in.From)
	for _, p := range in.Known {
		n.merge(p)
	}
	n.mu.Lock()
	out := gossipMsg{From: n.self, Known: make([]NodeInfo, 0, len(n.peers))}
	for _, p := range n.peers {
		out.Known = append(out.Known, p)
	}
	n.mu.Unlock()
	_ = enc.Encode(out)
}

// merge folds a peer record into the view, newest stamp winning.
func (n *Node) merge(p NodeInfo) {
	if p.ID == "" || p.ID == n.id {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	cur, ok := n.peers[p.ID]
	if !ok || p.Stamp.After(cur.Stamp) {
		n.peers[p.ID] = p
	}
}

// Join performs one gossip exchange with the peer at addr, merging its
// view into ours (and ours into its).
func (n *Node) Join(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("oar: join %s: %w", addr, err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s -\n", hdrGossip); err != nil {
		return err
	}
	n.mu.Lock()
	n.self.Stamp = time.Now()
	msg := gossipMsg{From: n.self, Known: make([]NodeInfo, 0, len(n.peers))}
	for _, p := range n.peers {
		msg.Known = append(msg.Known, p)
	}
	n.mu.Unlock()
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(msg); err != nil {
		return err
	}
	var reply gossipMsg
	if err := gob.NewDecoder(conn).Decode(&reply); err != nil {
		return err
	}
	n.merge(reply.From)
	for _, p := range reply.Known {
		n.merge(p)
	}
	return nil
}

// StartGossip launches a background loop that re-gossips with every known
// peer each interval, keeping the mesh's system information fresh.
func (n *Node) StartGossip(interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-n.stopCh:
				return
			case <-t.C:
				for _, p := range n.Peers() {
					_ = n.Join(p.Addr) // best effort; dead peers age out of use
				}
			}
		}
	}()
}

// --- services (remote execution) ---

// RegisterService exposes a named handler peers can invoke remotely.
func (n *Node) RegisterService(name string, fn ServiceFunc) {
	n.mu.Lock()
	n.services[name] = fn
	n.mu.Unlock()
}

type serviceReply struct {
	OK   bool
	Err  string
	Resp map[string]string
}

func (n *Node) serveService(conn net.Conn, br *bufio.Reader, name string) {
	defer conn.Close()
	n.mu.Lock()
	fn, ok := n.services[name]
	n.mu.Unlock()
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(conn)
	var req map[string]string
	if err := dec.Decode(&req); err != nil {
		return
	}
	if !ok {
		_ = enc.Encode(serviceReply{Err: fmt.Sprintf("oar: no service %q", name)})
		return
	}
	resp, err := fn(req)
	if err != nil {
		_ = enc.Encode(serviceReply{Err: err.Error()})
		return
	}
	_ = enc.Encode(serviceReply{OK: true, Resp: resp})
}

// Call invokes a named service on the peer at addr and returns its
// response — the paper's "compile and forget" remote-execution experience,
// minus the remote compiler (see package comment).
func Call(addr, service string, req map[string]string) (map[string]string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("oar: call %s: %w", addr, err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s %s\n", hdrService, service); err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(conn).Encode(req); err != nil {
		return nil, err
	}
	var reply serviceReply
	if err := gob.NewDecoder(conn).Decode(&reply); err != nil {
		return nil, err
	}
	if !reply.OK {
		return nil, errors.New(reply.Err)
	}
	return reply.Resp, nil
}

// --- stream registration (used by bridge.go) ---

// registerStream announces a named inbound stream endpoint and returns the
// channel on which its connection will be delivered.
func (n *Node) registerStream(name string) (<-chan net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("oar: node closed")
	}
	if _, dup := n.streams[name]; dup {
		return nil, fmt.Errorf("oar: stream %q already registered", name)
	}
	ch := make(chan net.Conn, 1)
	n.streams[name] = ch
	return ch, nil
}

// releaseStream unregisters the named stream if it is still ch's, and
// closes a connection delivered to ch that its receiver never adopted.
func (n *Node) releaseStream(name string, ch <-chan net.Conn) {
	n.mu.Lock()
	if cur, ok := n.streams[name]; ok && cur == ch {
		delete(n.streams, name)
	}
	n.mu.Unlock()
	select {
	case conn := <-ch:
		conn.Close()
	default:
	}
}

// freshStream returns a stream name no other call on n returns: prefix and
// a per-node count.
func (n *Node) freshStream(prefix string) string {
	return fmt.Sprintf("%s#%d", prefix, n.fresh.Add(1))
}

func (n *Node) serveStream(conn net.Conn, br *bufio.Reader, name string, gen uint64) {
	n.mu.Lock()
	ch, ok := n.streams[name]
	n.mu.Unlock()
	if !ok {
		conn.Close()
		return
	}
	bc := &bufferedConn{Conn: conn, r: br, gen: gen}
	select {
	case ch <- bc:
	default:
		// Newest wins: a second connection to the same stream is a sender
		// reconnecting after a failure the receiver has not noticed yet.
		// Drop the stale undelivered connection and hand over the new one.
		select {
		case old := <-ch:
			old.Close()
		default:
		}
		select {
		case ch <- bc:
		default:
			conn.Close()
		}
	}
}

// bufferedConn keeps bytes already buffered by the header reader readable.
// gen is the number of connections the sender had established for the
// stream before this one (see Receiver.setup).
type bufferedConn struct {
	net.Conn
	r   *bufio.Reader
	gen uint64
}

func (b *bufferedConn) Read(p []byte) (int, error) { return b.r.Read(p) }
