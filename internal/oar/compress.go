package oar

import (
	"compress/flate"
	"io"
	"net"

	"raftlib/raft"
)

// Compressed bridges implement the paper's §4.2 roadmap item "Future
// versions will incorporate link data compression as well, further
// improving the cache-able data": the binary frames of Bridge are
// deflate-compressed on the wire, flushed per frame so latency stays
// bounded. Both ends are created by one BridgeCompressed call, so no codec
// negotiation is needed.
//
// Compression is installed as frame writer/reader factories so the healing
// protocol recreates the flate layers on every reconnect; acknowledgments
// ride the connection uncompressed in the reverse direction.

// flateEnc layers a deflate writer over the connection; the sender flushes
// it once per frame.
func flateEnc(conn net.Conn) io.Writer {
	fw, _ := flate.NewWriter(conn, flate.BestSpeed) // errs only on a bad level
	return fw
}

// flateDec layers a deflate reader over the connection.
func flateDec(conn net.Conn) io.Reader { return flate.NewReader(conn) }

// BridgeCompressed wires a sender/receiver pair like Bridge, with the
// stream deflate-compressed on the wire. Worth it for compressible
// element types (text, sparse numeric data) on bandwidth-limited links;
// pure overhead for incompressible payloads.
func BridgeCompressed[T any](recvNode *Node, stream string, opts ...BridgeOption) (raft.Kernel, raft.Kernel, error) {
	recv, err := NewReceiver[T](recvNode, stream, opts...)
	if err != nil {
		return nil, nil, err
	}
	send := NewSender[T](recvNode.Addr(), stream, opts...)
	send.mkEnc = flateEnc
	recv.mkDec = flateDec
	return send, recv, nil
}
