package oar

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"raftlib/internal/fault"
	"raftlib/internal/hook"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
	"raftlib/raft"
)

// bridgeHooks is the runtime hookup shared by both bridge endpoints. Exe
// attaches the run's recorder (hook.TraceAttacher) before scheduling, so
// disconnect/reconnect/replay transitions land on the same timeline as
// kernel invocations and monitor decisions, and hands the endpoint its
// marker operations (hook.MarkerCarrier): the sender ships the markers it
// takes over the wire, the receiver deposits them on its output.
type bridgeHooks struct {
	rec   *trace.Recorder
	actor int32
	carry hook.Markers
}

// AttachTrace implements hook.TraceAttacher.
func (b *bridgeHooks) AttachTrace(rec *trace.Recorder, actor int32) {
	b.rec = rec
	b.actor = actor
}

// CarryMarkers implements hook.MarkerCarrier.
func (b *bridgeHooks) CarryMarkers(m hook.Markers) { b.carry = m }

// emit publishes one bridge transition (no-op when unattached).
func (b *bridgeHooks) emit(kind trace.Kind, stream string, arg int64) {
	if b.rec == nil {
		return
	}
	b.rec.Emit(trace.Event{
		Actor: b.actor, Kind: kind, At: time.Now().UnixNano(),
		Arg: arg, Label: stream,
	})
}

// A bridge tunnels one raft stream over a TCP connection: the Sender is a
// sink kernel in the producing process's map, the Receiver a source kernel
// in the consuming process's map. Apart from replacing one Link call with
// the bridge pair, no kernel code changes — the paper's "no difference
// between a distributed and a non-distributed program from the perspective
// of the developer" (§4.1).
//
// Bridges are self-healing. The wire protocol gives every data frame a
// sequence number; the receiver acknowledges delivered frames and
// deduplicates by sequence, while the sender buffers unacknowledged frames
// and replays them after reconnecting. Failures are detected by heartbeat
// frames (sender side) and a read deadline (receiver side); reconnection
// uses capped exponential backoff. The result is exactly-once element
// delivery across connection loss, frame corruption, and receiver-side
// timeouts — verified byte-for-byte by the chaos integration tests. An
// outage outlasting MaxDowntime degrades per the configured Policy: Fail
// raises a global exception wrapping raft.ErrBridgeDown; Drop keeps the
// local map running and discards traffic.
//
// Wire format: a header line ("stream <name> <generation>\n"), then binary
// frames sender->receiver and 8-byte little-endian acknowledgments
// receiver->sender on the same connection. A frame is a fixed
// frameHdrLen-byte header, then its marker sidecar, then its data:
//
//	[0:4)   magic (frameMagic, little-endian)
//	[4]     flags: none (inner-gob data), flagEOF, flagHB or flagRaw
//	[5:8)   zero
//	[8:16)  Seq: data and EOF frames count from 1; heartbeats carry 0
//	[16:20) sidecar length (at most maxMarksLen)
//	[20:24) data length (bounded per encoding, see Receiver.dataBound)
//
// The sender writes header, sidecar and data with one vectored write
// straight from the pooled replay blob, so framing adds no copy; the
// receiver checks the magic and both lengths before it reads a byte more,
// and skips a duplicate's bytes without reading them into anything. A
// heartbeat carries no sidecar and no data; an EOF frame closes the stream.
//
// When T is pointer-free (flagRaw) the data is the borrowed ring segment
// blitted byte-for-byte behind a fixed rawHdrLen-byte header: element size
// and count (uint32, little-endian) and a native-order sentinel, then the
// elements, a signals-present byte, and one byte per signal when any is
// set. The receiver reads the elements from the socket straight into its
// reused batch slice and publishes the batch only once the whole frame is
// in, so a frame cut off mid-read is replayed, never half-delivered. Each
// raw frame decodes statelessly, so replay and deduplication need no
// decoder-state coordination; the size and sentinel checks turn an
// endianness or layout disagreement between endpoints into an immediate,
// permanent bridge failure instead of silent corruption.
//
// Otherwise the data is one element batch encoded by a persistent inner
// gob stream: type descriptors cross the wire once per stream (not once per
// frame, and not again after a reconnect), and the receiver deduplicates
// replayed frames by sequence number BEFORE the inner decode, so the
// persistent inner decoder consumes every unique frame's bytes exactly
// once, in order.
//
// The marker sidecar (trace.EncodeMarkers) carries provenance for a sample
// of the frame's elements out-of-band, so the data bytes are identical with
// markers on or off. It rides the replay buffer with its frame: a replayed
// frame resends the same sidecar and the seq dedup filters both together.
//
// Compressed bridges (BridgeCompressed) run the same frames through a
// deflate layer flushed once per frame; acknowledgments stay uncompressed.

// Frame header layout; see the wire format above.
const (
	frameMagic  uint32 = 0x31464252 // "RBF1"
	frameHdrLen        = 24

	flagEOF byte = 1 << 0
	flagHB  byte = 1 << 1
	flagRaw byte = 1 << 2

	// maxMarksLen bounds a frame's marker sidecar.
	maxMarksLen = 16 << 20
	// maxPayloadLen bounds an inner-gob data blob: gob's own message limit.
	maxPayloadLen = 1 << 30
	// rawHdrLen is the raw data header: element size, count, sentinel.
	rawHdrLen = 16
)

// putFrameHdr fills a frame header.
func putFrameHdr(h *[frameHdrLen]byte, flags byte, seq uint64, marks, data int) {
	binary.LittleEndian.PutUint32(h[0:], frameMagic)
	h[4], h[5], h[6], h[7] = flags, 0, 0, 0
	binary.LittleEndian.PutUint64(h[8:], seq)
	binary.LittleEndian.PutUint32(h[16:], uint32(marks))
	binary.LittleEndian.PutUint32(h[20:], uint32(data))
}

// frameHdr is what the receiver keeps of a frame header once the frame
// has been read.
type frameHdr struct {
	flags byte
	seq   uint64
}

// rawSentinel is written in native byte order after the element size in
// every raw frame header; a receiver that reads it back differently is
// running on a machine with a different byte order than the sender, where
// blitted element bytes would be garbage.
const rawSentinel uint64 = 0x0102030405060708

// payload is the inner message: one element batch with its synchronized
// signals (omitted entirely when every element carries SigNone, the common
// case).
type payload[T any] struct {
	Vals []T
	Sigs []raft.Signal
}

// blob is a pooled encode buffer; replay entries own one until the frame
// is acknowledged, then it returns to the sender's pool.
type blob struct{ b []byte }

// sentFrame is one replay-buffer entry: the frame's encoded payload and
// its element count (for drop accounting under the Drop policy).
type sentFrame struct {
	seq  uint64
	data *blob
	n    int
	eof  bool
	// marks is the frame's latency-marker sidecar, retained alongside the
	// payload so replay resends byte-identical provenance.
	marks []byte
}

// senderBatch bounds elements per frame (amortizes encoder overhead
// without adding much latency).
const senderBatch = 256

// ErrPeerGone classifies a transient bridge failure: the connection was
// lost but the healing protocol is (or was) entitled to re-establish it.
// Permanent failures — downtime past the policy's tolerance — wrap
// raft.ErrBridgeDown instead.
var ErrPeerGone = errors.New("oar: peer connection lost")

// Policy selects how a bridge endpoint degrades when its connection stays
// down past MaxDowntime.
type Policy int

// Degradation policies.
const (
	// Fail raises a map-global exception wrapping raft.ErrBridgeDown, so
	// the local Exe returns a typed error (the default).
	Fail Policy = iota
	// Drop keeps the local map running: the sender discards subsequent
	// elements (counting them), the receiver delivers EOF downstream.
	Drop
)

// bridgeOpts holds the healing parameters of one bridge endpoint.
type bridgeOpts struct {
	heartbeat    time.Duration
	peerTimeout  time.Duration
	reconnectMin time.Duration
	reconnectMax time.Duration
	maxDowntime  time.Duration
	policy       Policy
	firstConnect time.Duration
	inj          *fault.Injector
}

func defaultBridgeOpts() bridgeOpts {
	return bridgeOpts{
		heartbeat:    250 * time.Millisecond,
		peerTimeout:  time.Second,
		reconnectMin: 50 * time.Millisecond,
		reconnectMax: 2 * time.Second,
		maxDowntime:  15 * time.Second,
		policy:       Fail,
		firstConnect: 30 * time.Second,
	}
}

// BridgeOption customizes a bridge endpoint's healing behavior.
type BridgeOption func(*bridgeOpts)

// WithHeartbeat sets the sender's heartbeat period (default 250ms); the
// receiver's liveness deadline defaults to 4x this period.
func WithHeartbeat(d time.Duration) BridgeOption {
	return func(o *bridgeOpts) {
		if d > 0 {
			o.heartbeat = d
			o.peerTimeout = 4 * d
		}
	}
}

// WithPeerTimeout sets the receiver's liveness deadline explicitly.
func WithPeerTimeout(d time.Duration) BridgeOption {
	return func(o *bridgeOpts) {
		if d > 0 {
			o.peerTimeout = d
		}
	}
}

// WithReconnectBackoff sets the reconnect backoff range (default 50ms
// doubling to 2s).
func WithReconnectBackoff(min, max time.Duration) BridgeOption {
	return func(o *bridgeOpts) {
		if min > 0 {
			o.reconnectMin = min
		}
		if max >= o.reconnectMin {
			o.reconnectMax = max
		}
	}
}

// WithMaxDowntime bounds one outage before the degradation policy fires
// (default 15s; 0 parks the endpoint and retries forever).
func WithMaxDowntime(d time.Duration) BridgeOption {
	return func(o *bridgeOpts) { o.maxDowntime = d }
}

// WithPolicy selects the degradation policy (default Fail).
func WithPolicy(p Policy) BridgeOption {
	return func(o *bridgeOpts) { o.policy = p }
}

// WithFirstConnect sets how long endpoints wait for the initial connection
// (default 30s receiver-side).
func WithFirstConnect(d time.Duration) BridgeOption {
	return func(o *bridgeOpts) {
		if d > 0 {
			o.firstConnect = d
		}
	}
}

// WithBridgeFault installs a deterministic fault plan on the endpoint: the
// sender consults it before transmitting each frame (sever / corrupt /
// delay at exact sequence numbers). Pair it with the same injector passed
// to raft.WithFaultInjection for whole-system chaos runs.
func WithBridgeFault(inj *fault.Injector) BridgeOption {
	return func(o *bridgeOpts) { o.inj = inj }
}

// Sender is the producing end of a bridge: a sink kernel with input port
// "in" whose elements are framed, sequenced and encoded onto the TCP
// connection, with unacknowledged frames buffered for replay.
type Sender[T any] struct {
	raft.KernelBase
	addr   string
	stream string
	opt    bridgeOpts

	// mkEnc layers the frame writer over a fresh connection (compressed
	// bridges swap in a flate writer, flushed once per frame); nil writes
	// frames to the connection itself.
	mkEnc func(conn net.Conn) io.Writer

	mu     sync.Mutex // guards conn, w, ackEnd, hdr, iov, iovs
	conn   net.Conn
	w      io.Writer
	ackEnd chan struct{} // closed when conn's ack reader returns
	// hdr and iov are the persistent frame header and write vector: one
	// writev per frame, with nothing boxed or allocated per frame.
	hdr  [frameHdrLen]byte
	iov  net.Buffers
	iovs [3][]byte

	// The persistent inner payload stream: one encoder for the life of the
	// sender, writing into the reusable encBuf, with the finished bytes
	// copied once into a pooled blob owned by the replay entry. Views make
	// that single copy the only one on the send path — elements go ring
	// storage -> encoder with no staging slice in between.
	payloadEnc *gob.Encoder
	encBuf     bytes.Buffer
	pl         payload[T]
	blobPool   sync.Pool

	// raw selects the blit encoding for data frames: T embeds no pointers
	// (its bytes ARE its value). Decided once at construction; every data frame of a sender uses the
	// same encoding.
	raw bool

	nextSeq uint64
	buffer  []sentFrame // unacknowledged frames, ascending seq
	acked   atomic.Uint64
	acks    chan struct{} // a token per ack read, for finish (capacity 1)

	// stageMarks holds the encoded marker sidecar for the borrow currently
	// being staged; the first frame staged after a pop consumes it.
	stageMarks []byte

	stop     chan struct{}
	stopOnce sync.Once
	started  bool
	gaveUp   bool

	// dials counts the connections established so far; each stream header
	// carries the count before it, the connection's generation.
	dials      uint64
	reconnects atomic.Uint64
	replayed   atomic.Uint64
	dropped    atomic.Uint64
	downtimeNs atomic.Int64

	bridgeHooks
}

// NewSender returns a bridge sender that will dial the receiver node at
// addr and feed the named stream.
func NewSender[T any](addr, stream string, opts ...BridgeOption) *Sender[T] {
	k := &Sender[T]{addr: addr, stream: stream, opt: defaultBridgeOpts(), stop: make(chan struct{}), acks: make(chan struct{}, 1)}
	for _, o := range opts {
		o(&k.opt)
	}
	k.raw = ringbuffer.PointerFree(reflect.TypeFor[T]())
	k.SetName("tcp-send[" + stream + "]")
	raft.AddInput[T](k, "in")
	return k
}

// Init implements raft.Initializer by dialing the receiver and starting
// the heartbeat loop.
func (s *Sender[T]) Init() error {
	if err := s.connect(10 * time.Second); err != nil {
		return fmt.Errorf("oar: sender dial %s: %w", s.addr, err)
	}
	s.started = true
	go s.heartbeatLoop()
	return nil
}

// connect establishes one connection: dial, header, frame writer, ack
// reader.
func (s *Sender[T]) connect(dialTimeout time.Duration) error {
	conn, err := net.DialTimeout("tcp", s.addr, dialTimeout)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(conn, "%s %s %d\n", hdrStream, s.stream, s.dials); err != nil {
		conn.Close()
		return err
	}
	s.dials++
	var w io.Writer = conn
	if s.mkEnc != nil {
		w = s.mkEnc(conn)
	}
	end := make(chan struct{})
	s.mu.Lock()
	s.conn, s.w, s.ackEnd = conn, w, end
	s.mu.Unlock()
	// Acks ride the same connection receiver->sender, always uncompressed.
	go s.ackLoop(conn, end)
	return nil
}

// ackLoop drains acknowledgments from one connection until it dies, then
// closes end. Each ack leaves a token in acks.
func (s *Sender[T]) ackLoop(conn net.Conn, end chan struct{}) {
	defer close(end)
	var b [8]byte
	for {
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			return
		}
		seq := binary.LittleEndian.Uint64(b[:])
		for {
			cur := s.acked.Load()
			if seq <= cur || s.acked.CompareAndSwap(cur, seq) {
				break
			}
		}
		select {
		case s.acks <- struct{}{}:
		default:
		}
	}
}

// heartbeatLoop keeps the connection demonstrably alive while the producer
// is idle; a failed heartbeat closes the connection so the next transmit
// reconnects.
func (s *Sender[T]) heartbeatLoop() {
	t := time.NewTicker(s.opt.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			if s.w != nil {
				if err := s.writeHeartbeatLocked(); err != nil && s.conn != nil {
					s.conn.Close()
				}
			}
			s.mu.Unlock()
		}
	}
}

// writeHeartbeatLocked writes and flushes one heartbeat frame (caller holds
// s.mu).
func (s *Sender[T]) writeHeartbeatLocked() error {
	putFrameHdr(&s.hdr, flagHB, 0, 0, 0)
	if _, err := s.w.Write(s.hdr[:]); err != nil {
		return err
	}
	return flushFrame(s.w)
}

// flushFrame pushes a finished frame through a buffering frame writer (the
// compressed bridge's deflate layer); a bare connection needs nothing.
func flushFrame(w io.Writer) error {
	if f, ok := w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// dropConn abandons the current connection (the ack loop exits on its own).
func (s *Sender[T]) dropConn() {
	s.mu.Lock()
	if s.conn != nil {
		s.conn.Close()
	}
	s.conn, s.w = nil, nil
	s.mu.Unlock()
}

// Run implements raft.Kernel: borrow a batch from the input queue, encode
// it straight out of ring storage (one frame per contiguous segment, at
// most two per borrow), and transmit with replay protection. The queue's
// elements are never staged through a kernel-owned slice: the view pins
// them in place for the inner encoder, and the replay buffer keeps only
// the encoded bytes. The borrow is released before the connection write —
// once a frame is staged, its blob owns the bytes, so the producer can
// refill the queue while the transmit blocks on the socket.
func (s *Sender[T]) Run() raft.Status {
	in := s.In("in")
	limit := in.BatchHint(senderBatch)
	if limit > senderBatch {
		limit = senderBatch
	} else if limit < 1 {
		limit = 1
	}
	v, err := raft.PopView[T](in, limit)
	if v.Len() == 0 {
		_ = err // blocking PopView yields elements or ErrClosed
		return s.finish()
	}
	if s.gaveUp {
		s.dropped.Add(uint64(v.Len()))
		raft.ReleaseView[T](in, v.Len())
		return raft.Proceed
	}
	s.stageMarks = s.takeMarkSidecar()
	first, st := s.stage(v.Vals, v.Sigs)
	var second uint64
	if st == raft.Proceed && len(v.Vals2) > 0 {
		second, st = s.stage(v.Vals2, v.Sigs2)
	}
	raft.ReleaseView[T](in, v.Len())
	if st != raft.Proceed {
		return st
	}
	if err := s.transmit(first); err != nil {
		return s.giveUp(err)
	}
	if second != 0 {
		if err := s.transmit(second); err != nil {
			return s.giveUp(err)
		}
	}
	return raft.Proceed
}

// takeMarkSidecar drains the latency markers picked up by the pop that
// produced the current borrow and encodes them for the wire, closing each
// marker's open queue hop at the moment of departure. Returns nil when
// markers are disabled or none rode the batch, and drops a sidecar over
// maxMarksLen, which the receiver would refuse on every replay.
func (s *Sender[T]) takeMarkSidecar() []byte {
	ms := s.carry.Take()
	if len(ms) == 0 {
		return nil
	}
	now := time.Now().UnixNano()
	for _, m := range ms {
		m.BeginTransit(now)
	}
	if b := trace.EncodeMarkers(ms); len(b) <= maxMarksLen {
		return b
	}
	return nil
}

// allSigNone reports whether the signal slice (possibly nil) carries no
// synchronized signals, letting the payload omit it.
func allSigNone(sigs []raft.Signal) bool {
	for _, s := range sigs {
		if s != raft.SigNone {
			return false
		}
	}
	return true
}

// stage sequences one element batch and encodes it into a replay-buffer
// entry, without touching the network: a raw blit when the element type
// permits, the persistent inner gob stream otherwise. vals/sigs may alias
// queue storage; they are not retained past the call. A non-Proceed status
// means the degradation policy already fired.
func (s *Sender[T]) stage(vals []T, sigs []raft.Signal) (uint64, raft.Status) {
	if s.raw {
		return s.stageRaw(vals, sigs), raft.Proceed
	}
	if allSigNone(sigs) {
		sigs = nil
	}
	if s.payloadEnc == nil {
		s.payloadEnc = gob.NewEncoder(&s.encBuf)
	}
	s.encBuf.Reset()
	s.pl.Vals, s.pl.Sigs = vals, sigs
	err := s.payloadEnc.Encode(&s.pl)
	s.pl.Vals, s.pl.Sigs = nil, nil // do not retain borrowed storage
	if err != nil {
		// The inner stream is poisoned (unencodable element type) — a
		// programming error, permanent by classification.
		return 0, s.giveUp(fmt.Errorf("oar: stream %q: payload encode: %w (%v)",
			s.stream, raft.ErrBridgeDown, err))
	}
	bl := s.getBlob(s.encBuf.Len())
	copy(bl.b, s.encBuf.Bytes())
	s.nextSeq++
	sf := sentFrame{seq: s.nextSeq, data: bl, n: len(vals)}
	sf.marks, s.stageMarks = s.stageMarks, nil
	s.buffer = append(s.buffer, sf)
	s.prune()
	return s.nextSeq, raft.Proceed
}

// stageRaw sequences one batch as a raw frame: the element bytes are
// blitted straight from the (possibly borrowed) slice into a pooled blob,
// with no per-element encoding. Layout: uint32 element size, uint32 count,
// 8-byte native-order sentinel, count*size element bytes, one
// signals-present byte, then count signal bytes when any signal is set. It
// cannot fail: the blit has no encodable-type error mode.
func (s *Sender[T]) stageRaw(vals []T, sigs []raft.Signal) uint64 {
	if allSigNone(sigs) {
		sigs = nil
	}
	var zero T
	size := int(unsafe.Sizeof(zero))
	bl := s.getBlob(rawHdrLen + len(vals)*size + 1 + len(sigs))
	binary.LittleEndian.PutUint32(bl.b[0:], uint32(size))
	binary.LittleEndian.PutUint32(bl.b[4:], uint32(len(vals)))
	binary.NativeEndian.PutUint64(bl.b[8:], rawSentinel)
	off := rawHdrLen
	if size > 0 && len(vals) > 0 {
		off += copy(bl.b[off:], unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*size))
	}
	if sigs == nil {
		bl.b[off] = 0
	} else {
		bl.b[off] = 1
		copy(bl.b[off+1:], unsafe.Slice((*byte)(unsafe.Pointer(&sigs[0])), len(sigs)))
	}
	s.nextSeq++
	sf := sentFrame{seq: s.nextSeq, data: bl, n: len(vals)}
	sf.marks, s.stageMarks = s.stageMarks, nil
	s.buffer = append(s.buffer, sf)
	s.prune()
	return s.nextSeq
}

// getBlob leases a pooled encode buffer of length n.
func (s *Sender[T]) getBlob(n int) *blob {
	bl, _ := s.blobPool.Get().(*blob)
	if bl == nil {
		bl = &blob{}
	}
	if cap(bl.b) < n {
		bl.b = make([]byte, n)
	}
	bl.b = bl.b[:n]
	return bl
}

// prune discards buffered frames the receiver has acknowledged, returning
// their blobs to the pool.
func (s *Sender[T]) prune() {
	acked := s.acked.Load()
	i := 0
	for i < len(s.buffer) && s.buffer[i].seq <= acked {
		if s.buffer[i].data != nil {
			s.blobPool.Put(s.buffer[i].data)
			s.buffer[i].data = nil
		}
		i++
	}
	if i > 0 {
		s.buffer = append(s.buffer[:0], s.buffer[i:]...)
	}
}

// transmit delivers the buffered frame with the given seq to a live
// connection, reconnecting and replaying as needed. A nil return means the
// frame reached a connection (acknowledgment is tracked asynchronously); a
// non-nil return wraps raft.ErrBridgeDown.
func (s *Sender[T]) transmit(seq uint64) error {
	act := fault.ActNone
	if s.opt.inj != nil {
		var delay time.Duration
		act, delay = s.opt.inj.FrameAction(s.stream, seq)
		if delay > 0 {
			time.Sleep(delay)
		}
	}
	switch act {
	case fault.ActSever:
		s.dropConn()
	case fault.ActCorrupt:
		s.mu.Lock()
		if s.conn != nil {
			_, _ = s.conn.Write([]byte("\xde\xad\xbe\xef garbage"))
		}
		s.mu.Unlock()
		s.dropConn()
	default:
		if err := s.writeSeq(seq); err == nil {
			return nil
		}
		s.dropConn()
	}
	// The frame is safe in the replay buffer; re-establish and replay it
	// (with everything else unacknowledged) on the fresh connection.
	return s.reconnect()
}

// writeSeq writes the buffered frame with the given seq (no-op if it has
// been acknowledged and pruned meanwhile).
func (s *Sender[T]) writeSeq(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return fmt.Errorf("oar: stream %q: %w", s.stream, ErrPeerGone)
	}
	for i := range s.buffer {
		if s.buffer[i].seq == seq {
			if err := s.writeFrameLocked(&s.buffer[i]); err != nil {
				return err
			}
			return flushFrame(s.w)
		}
	}
	return nil
}

// writeFrameLocked writes one replay-buffer entry as a wire frame: header,
// sidecar and blob in one vectored write (caller holds s.mu and flushes).
func (s *Sender[T]) writeFrameLocked(sf *sentFrame) error {
	var flags byte
	switch {
	case sf.eof:
		flags = flagEOF
	case s.raw:
		flags = flagRaw
	}
	var data []byte
	if sf.data != nil {
		data = sf.data.b
	}
	putFrameHdr(&s.hdr, flags, sf.seq, len(sf.marks), len(data))
	s.iovs = [3][]byte{s.hdr[:], sf.marks, data}
	s.iov = s.iovs[:]
	_, err := s.iov.WriteTo(s.w)
	return err
}

// reconnect re-establishes the connection with capped exponential backoff
// and replays every unacknowledged frame. It fails (wrapping
// raft.ErrBridgeDown) once the outage outlasts MaxDowntime, or at once when
// the sender is finalized or its execution fails: a receiver in a lost run
// is not coming back.
func (s *Sender[T]) reconnect() error {
	start := time.Now()
	defer func() { s.downtimeNs.Add(int64(time.Since(start))) }()
	s.emit(trace.BridgeDisconnect, s.stream, 0)
	backoff := s.opt.reconnectMin
	for {
		if s.opt.maxDowntime > 0 && time.Since(start) > s.opt.maxDowntime {
			return fmt.Errorf("oar: stream %q: sender down %v: %w",
				s.stream, time.Since(start).Round(time.Millisecond), raft.ErrBridgeDown)
		}
		if err := s.connect(backoff + s.opt.reconnectMin); err == nil {
			replayedBefore := s.replayed.Load()
			if err := s.replay(); err == nil {
				s.reconnects.Add(1)
				s.emit(trace.BridgeReconnect, s.stream, int64(s.reconnects.Load()))
				if n := s.replayed.Load() - replayedBefore; n > 0 {
					s.emit(trace.BridgeReplay, s.stream, int64(n))
				}
				return nil
			}
			s.dropConn()
		}
		select {
		case <-s.stop:
			return fmt.Errorf("oar: stream %q: sender stopped while down: %w", s.stream, raft.ErrBridgeDown)
		case <-s.Failed():
			return fmt.Errorf("oar: stream %q: execution failed while down: %w", s.stream, raft.ErrBridgeDown)
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > s.opt.reconnectMax {
			backoff = s.opt.reconnectMax
		}
	}
}

// replay retransmits every buffered frame past the acknowledged watermark
// on the fresh connection; the receiver deduplicates by sequence. Replayed
// frames are the original encoded bytes, so the receiver's persistent
// inner decoder never sees a re-encoding.
func (s *Sender[T]) replay() error {
	s.prune()
	acked := s.acked.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return fmt.Errorf("oar: stream %q: %w", s.stream, ErrPeerGone)
	}
	for i := range s.buffer {
		if s.buffer[i].seq <= acked {
			continue
		}
		if err := s.writeFrameLocked(&s.buffer[i]); err != nil {
			return err
		}
		s.replayed.Add(1)
	}
	return flushFrame(s.w)
}

// giveUp applies the degradation policy to a permanent failure. In a
// failed execution it just stops: the run's own error says why.
func (s *Sender[T]) giveUp(err error) raft.Status {
	select {
	case <-s.Failed():
		return raft.Stop
	default:
	}
	if s.opt.policy == Drop {
		s.gaveUp = true
		for i := range s.buffer {
			s.dropped.Add(uint64(s.buffer[i].n))
			if s.buffer[i].data != nil {
				s.blobPool.Put(s.buffer[i].data)
			}
		}
		s.buffer = nil
		return raft.Proceed
	}
	s.Raise(err)
	return raft.Stop
}

// finish sequences and transmits the EOF frame, then waits for the final
// acknowledgment so frames replayed during a late outage are not abandoned
// in a dying connection — until the connection ends (a receiver that
// stopped early closes it) or the peer timeout passes.
func (s *Sender[T]) finish() raft.Status {
	if s.gaveUp || !s.started {
		return raft.Stop
	}
	if err := s.transmit(s.stageEOF()); err != nil {
		return s.giveUp(err)
	}
	s.mu.Lock()
	end := s.ackEnd
	s.mu.Unlock()
	deadline := time.NewTimer(s.opt.peerTimeout)
	defer deadline.Stop()
	for s.acked.Load() < s.nextSeq {
		select {
		case <-s.acks:
		case <-end:
			return raft.Stop
		case <-deadline.C:
			return raft.Stop
		}
	}
	return raft.Stop
}

// stageEOF sequences the EOF frame into the replay buffer.
func (s *Sender[T]) stageEOF() uint64 {
	s.nextSeq++
	s.buffer = append(s.buffer, sentFrame{seq: s.nextSeq, eof: true})
	return s.nextSeq
}

// Finalize implements raft.Finalizer by stopping the heartbeat and closing
// the connection.
func (s *Sender[T]) Finalize() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.dropConn()
}

// BridgeStats implements raft.BridgeReporter.
func (s *Sender[T]) BridgeStats() (raft.BridgeReport, bool) {
	return raft.BridgeReport{
		Stream:     s.stream,
		Reconnects: s.reconnects.Load(),
		Replayed:   s.replayed.Load(),
		Dropped:    s.dropped.Load(),
		Downtime:   time.Duration(s.downtimeNs.Load()),
	}, s.started
}

// blobReader feeds the persistent inner decoder one frame's data at a
// time. It implements io.ByteReader so gob reads it directly (no bufio
// wrapper that could read ahead across blob boundaries).
type blobReader struct {
	data []byte
	off  int
}

func (b *blobReader) load(data []byte) { b.data, b.off = data, 0 }

func (b *blobReader) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *blobReader) ReadByte() (byte, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	c := b.data[b.off]
	b.off++
	return c, nil
}

// Receiver is the consuming end of a bridge: a source kernel with output
// port "out" fed by the TCP stream registered on its node, deduplicating
// replayed frames and acknowledging delivery.
type Receiver[T any] struct {
	raft.KernelBase
	node   *Node
	stream string
	accept <-chan net.Conn
	opt    bridgeOpts

	// mkDec layers the frame reader over a fresh connection (compressed
	// bridges swap in a flate reader); nil reads the connection itself.
	mkDec func(conn net.Conn) io.Reader
	// verdict, when set, runs after the EOF frame: a remote stage's
	// receiver asks how the stage ended and raises a failure.
	verdict func() error

	conn net.Conn
	rd   io.Reader
	// hdr holds frame and raw headers as they are read, ackBuf outbound acks;
	// marks and buf hold the current frame's sidecar and inner-gob blob.
	// All four persist, so a frame costs no allocation once they have grown.
	hdr    [frameHdrLen]byte
	ackBuf [8]byte
	marks  []byte
	buf    []byte

	// The persistent inner payload stream, mirroring the sender's: one
	// decoder for the life of the receiver, fed each frame's data blob in
	// sequence order (duplicates are filtered by seq before the decode so
	// the descriptor state never desynchronizes). pl's slices are reused
	// across frames only when T is pointer-free (see reuseVals): the bulk
	// push below copies element values, not what they point at, and gob
	// decodes into whatever backing storage the destination still holds —
	// reusing a pointer-bearing batch would rewrite bytes that delivered
	// elements in the ring still reference.
	payloadDec *gob.Decoder
	blobSrc    blobReader
	pl         payload[T]
	reuseVals  bool

	delivered uint64
	started   bool

	reconnects atomic.Uint64
	downtimeNs atomic.Int64

	bridgeHooks
}

// NewReceiver registers the named stream endpoint on node and returns the
// source kernel delivering its elements. The receiver releases the name
// when it finishes.
func NewReceiver[T any](node *Node, stream string, opts ...BridgeOption) (*Receiver[T], error) {
	ch, err := node.registerStream(stream)
	if err != nil {
		return nil, err
	}
	k := &Receiver[T]{
		node: node, stream: stream, accept: ch, opt: defaultBridgeOpts(),
		reuseVals: ringbuffer.PointerFree(reflect.TypeFor[T]()),
	}
	for _, o := range opts {
		o(&k.opt)
	}
	k.SetName("tcp-recv[" + stream + "]")
	raft.AddOutput[T](k, "out")
	return k, nil
}

// Init implements raft.Initializer by waiting for the sender to connect.
func (r *Receiver[T]) Init() error {
	select {
	case conn := <-r.accept:
		r.setup(conn)
		r.started = true
		return nil
	case <-time.After(r.opt.firstConnect):
		r.release()
		return fmt.Errorf("oar: receiver %q: no sender connected within %v: %w",
			r.stream, r.opt.firstConnect, raft.ErrBridgeDown)
	}
}

// setup adopts one connection. Its generation is how many times the sender
// had connected before, so Reconnects also counts the reconnects whose
// connection this receiver never adopted: a sever that lands before Init, or
// a severed connection whose header the node read after its successor's.
func (r *Receiver[T]) setup(conn net.Conn) {
	if bc, ok := conn.(*bufferedConn); ok && bc.gen > r.reconnects.Load() {
		r.reconnects.Store(bc.gen)
	}
	r.conn, r.rd = conn, conn
	if r.mkDec != nil {
		r.rd = r.mkDec(conn)
	}
}

// dropConn abandons the current connection.
func (r *Receiver[T]) dropConn() {
	if r.conn != nil {
		r.conn.Close()
	}
	r.conn, r.rd = nil, nil
}

// Run implements raft.Kernel: read one frame, deduplicate by sequence,
// deliver, ack. Connection failures (timeout, EOF mid-stream, a bad magic or
// an out-of-bound length) are healed by waiting for the sender's reconnect;
// an outage outlasting MaxDowntime degrades per the policy.
func (r *Receiver[T]) Run() raft.Status {
	for {
		if r.conn == nil {
			if st, done := r.await(); done {
				return st
			}
		}
		_ = r.conn.SetReadDeadline(time.Now().Add(r.opt.peerTimeout))
		h, dup, err := r.readFrame()
		if errors.Is(err, errBadPayload) {
			// A replay would resend the same bytes: permanent by
			// classification.
			if r.opt.policy == Fail {
				r.Raise(fmt.Errorf("oar: stream %q: %w (%v)", r.stream, raft.ErrBridgeDown, err))
			}
			return raft.Stop
		}
		if err != nil {
			// Transient by classification: the healing protocol owns it.
			r.dropConn()
			continue
		}
		switch {
		case h.flags == flagHB:
			continue
		case dup:
			// Re-acknowledge so the sender prunes it.
			r.ack(h.seq)
			continue
		case h.flags == flagEOF:
			r.ack(h.seq)
			if r.verdict != nil {
				r.Raise(r.verdict())
			}
			return raft.Stop
		}
		if len(r.marks) > 0 {
			// Re-inject the sidecar's markers before the push so they ride
			// onto the out lane with this frame's elements. The seq dedup
			// already filtered replayed duplicates, so each marker crosses
			// exactly once; a malformed sidecar is dropped rather than
			// poisoning an otherwise healthy data frame.
			if ms, err := trace.DecodeMarkers(r.marks); err == nil {
				now := time.Now().UnixNano()
				for _, m := range ms {
					m.EndTransit("bridge:"+r.stream, now)
				}
				r.carry.Deposit(ms)
			}
		}
		out := r.Out("out")
		if len(r.pl.Sigs) == len(r.pl.Vals) {
			// Whole frame in one bulk push, its signals aligned.
			if err := raft.PushNSig(out, r.pl.Vals, r.pl.Sigs); err != nil {
				return raft.Stop
			}
		} else if err := raft.PushN(out, r.pl.Vals); err != nil {
			return raft.Stop
		}
		if h.seq != 0 {
			r.delivered = h.seq
			r.ack(h.seq)
		}
		return raft.Proceed
	}
}

// errBadPayload marks a frame whose data cannot be decoded although the
// frame itself arrived whole: the endpoints disagree on element layout or
// byte order, or the inner gob stream is poisoned. A replay would resend
// the same bytes, so the receiver gives up instead of healing.
var errBadPayload = errors.New("bad payload")

// badPayload wraps a decode failure in errBadPayload.
func badPayload(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadPayload, fmt.Sprintf(format, args...))
}

// dataBound is the largest data length a frame with the given flags may
// declare: exact for a raw batch of at most senderBatch elements of T (with
// its signals), gob's message limit for an inner-gob blob.
func (r *Receiver[T]) dataBound(flags byte) int {
	switch flags {
	case 0:
		return maxPayloadLen
	case flagRaw:
		var zero T
		return rawHdrLen + senderBatch*(int(unsafe.Sizeof(zero))+1) + 1
	default:
		return 0
	}
}

// readFrame reads one frame from r.rd. A data frame lands in r.pl and its
// sidecar in r.marks; a duplicate (seq already delivered) is skipped without
// being read into anything and reported by dup. Nothing is published: the
// caller delivers only a frame that was read whole. An error wrapping
// errBadPayload is permanent; any other error means the connection is
// unusable (transport failure, bad magic, a length out of bounds).
func (r *Receiver[T]) readFrame() (h frameHdr, dup bool, err error) {
	if _, err := io.ReadFull(r.rd, r.hdr[:]); err != nil {
		return h, false, err
	}
	if m := binary.LittleEndian.Uint32(r.hdr[0:]); m != frameMagic {
		return h, false, fmt.Errorf("bad frame magic %#x", m)
	}
	h.flags, h.seq = r.hdr[4], binary.LittleEndian.Uint64(r.hdr[8:])
	marks, data := int(binary.LittleEndian.Uint32(r.hdr[16:])), int(binary.LittleEndian.Uint32(r.hdr[20:]))
	switch bound := r.dataBound(h.flags); {
	case h.flags != 0 && h.flags != flagEOF && h.flags != flagHB && h.flags != flagRaw:
		return h, false, fmt.Errorf("bad frame flags %#x", h.flags)
	case data > bound, h.flags == flagRaw && data < rawHdrLen+1:
		return h, false, fmt.Errorf("frame data length %d out of bounds (max %d)", data, bound)
	case marks > maxMarksLen, h.flags == flagHB && marks != 0:
		return h, false, fmt.Errorf("frame sidecar length %d out of bounds", marks)
	}
	if h.flags == flagHB {
		return h, false, nil
	}
	if h.seq != 0 && h.seq <= r.delivered {
		// Replayed duplicate: its bytes already went through the inner
		// decoder once, so it must be dropped here, before the decode.
		_, err := io.CopyN(io.Discard, r.rd, int64(marks+data))
		return h, true, err
	}
	if r.marks, err = readGrow(r.rd, r.marks, marks); err != nil {
		return h, false, err
	}
	switch h.flags {
	case flagEOF:
		return h, false, nil
	case flagRaw:
		return h, false, r.readRaw(data)
	}
	if r.buf, err = readGrow(r.rd, r.buf, data); err != nil {
		return h, false, err
	}
	r.blobSrc.load(r.buf)
	if r.payloadDec == nil {
		r.payloadDec = gob.NewDecoder(&r.blobSrc)
	}
	if r.reuseVals {
		r.pl.Vals = r.pl.Vals[:0]
	} else {
		r.pl.Vals = nil // force fresh element storage (see field doc)
	}
	r.pl.Sigs = r.pl.Sigs[:0]
	if err := r.payloadDec.Decode(&r.pl); err != nil {
		// The inner stream is poisoned: a fresh decoder could not pick up
		// mid-stream (descriptors were sent once).
		return h, false, badPayload("payload decode: %v", err)
	}
	return h, false, nil
}

// readRaw reads the n data bytes of one raw frame (see stageRaw for the
// layout) into r.pl: the element bytes go from the stream straight into the
// reused batch slice. Raw frames exist only for pointer-free T, so in-place
// reuse is always safe here; the element-size and sentinel checks make a
// layout or byte-order disagreement between endpoints fail loudly instead of
// delivering garbage elements.
func (r *Receiver[T]) readRaw(n int) error {
	var zero T
	if !r.reuseVals {
		return badPayload("raw frame for pointer-bearing element type %T", zero)
	}
	if _, err := io.ReadFull(r.rd, r.hdr[:rawHdrLen]); err != nil {
		return err
	}
	size := int(unsafe.Sizeof(zero))
	if got := binary.LittleEndian.Uint32(r.hdr[0:]); uint64(got) != uint64(size) {
		return badPayload("element size mismatch: sender %d bytes, receiver %d (%T)", got, size, zero)
	}
	if got := binary.NativeEndian.Uint64(r.hdr[8:]); got != rawSentinel {
		return badPayload("byte-order sentinel mismatch (%#x): endpoints disagree on endianness", got)
	}
	cnt := int(binary.LittleEndian.Uint32(r.hdr[4:]))
	sigLen := n - rawHdrLen - cnt*size - 1
	if cnt > senderBatch || (sigLen != 0 && sigLen != cnt) {
		return badPayload("raw frame holds %d bytes, want %d elements of %d", n, cnt, size)
	}
	r.pl.Vals = slices.Grow(r.pl.Vals[:0], cnt)[:cnt]
	if cnt > 0 && size > 0 {
		if _, err := io.ReadFull(r.rd, unsafe.Slice((*byte)(unsafe.Pointer(&r.pl.Vals[0])), cnt*size)); err != nil {
			return err
		}
	}
	if _, err := io.ReadFull(r.rd, r.hdr[:1]); err != nil {
		return err
	}
	r.pl.Sigs = r.pl.Sigs[:0]
	switch flag := r.hdr[0]; {
	case flag == 0 && sigLen == 0:
	case flag == 1 && sigLen == cnt:
		r.pl.Sigs = slices.Grow(r.pl.Sigs, cnt)[:cnt]
		if cnt > 0 {
			if _, err := io.ReadFull(r.rd, unsafe.Slice((*byte)(unsafe.Pointer(&r.pl.Sigs[0])), cnt)); err != nil {
				return err
			}
		}
	default:
		return badPayload("raw frame signals byte %d with %d signal bytes for %d elements", flag, sigLen, cnt)
	}
	return nil
}

// readGrow reads exactly n bytes from rd into buf's storage. When buf is too
// small it grows only as bytes arrive, so a corrupt length costs at most
// about twice what the stream actually carried.
func readGrow(rd io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) >= n {
		buf = buf[:n]
		_, err := io.ReadFull(rd, buf)
		return buf, err
	}
	buf = buf[:0]
	for len(buf) < n {
		buf = slices.Grow(buf, min(n-len(buf), max(len(buf), 4096)))
		k, err := io.ReadFull(rd, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// ack reports delivery through seq as 8 little-endian bytes; failures are
// ignored (a dying connection means the sender will reconnect and replay,
// and the deduplication window absorbs the repeats).
func (r *Receiver[T]) ack(seq uint64) {
	if r.conn != nil {
		binary.LittleEndian.PutUint64(r.ackBuf[:], seq)
		_, _ = r.conn.Write(r.ackBuf[:])
	}
}

// await blocks until the sender reconnects, the outage outlasts
// MaxDowntime and the degradation policy fires, or the execution fails.
// done=true carries a final kernel status.
func (r *Receiver[T]) await() (raft.Status, bool) {
	start := time.Now()
	defer func() { r.downtimeNs.Add(int64(time.Since(start))) }()
	r.emit(trace.BridgeDisconnect, r.stream, 0)
	var expire <-chan time.Time
	if r.opt.maxDowntime > 0 {
		t := time.NewTimer(r.opt.maxDowntime)
		defer t.Stop()
		expire = t.C
	}
	select {
	case conn := <-r.accept:
		r.setup(conn)
		r.emit(trace.BridgeReconnect, r.stream, int64(r.reconnects.Load()))
		return raft.Proceed, false
	case <-r.Failed():
		return raft.Stop, true
	case <-expire:
		if r.opt.policy == Fail {
			r.Raise(fmt.Errorf("oar: stream %q: receiver down %v: %w",
				r.stream, time.Since(start).Round(time.Millisecond), raft.ErrBridgeDown))
		}
		return raft.Stop, true
	}
}

// Finalize implements raft.Finalizer by closing the connection and
// releasing the stream name.
func (r *Receiver[T]) Finalize() {
	r.dropConn()
	r.release()
}

// release unregisters the receiver's stream from its node, so the name can
// be bridged again.
func (r *Receiver[T]) release() { r.node.releaseStream(r.stream, r.accept) }

// BridgeStats implements raft.BridgeReporter.
func (r *Receiver[T]) BridgeStats() (raft.BridgeReport, bool) {
	return raft.BridgeReport{
		Stream:     r.stream,
		Reconnects: r.reconnects.Load(),
		Downtime:   time.Duration(r.downtimeNs.Load()),
	}, r.started
}

// Bridge wires a sender/receiver pair for the named stream terminating at
// recvNode. Link the sender as a sink in the producing map and the
// receiver as a source in the consuming map. Options apply to both ends.
func Bridge[T any](recvNode *Node, stream string, opts ...BridgeOption) (*Sender[T], *Receiver[T], error) {
	recv, err := NewReceiver[T](recvNode, stream, opts...)
	if err != nil {
		return nil, nil, err
	}
	send := NewSender[T](recvNode.Addr(), stream, opts...)
	return send, recv, nil
}

// guard: both endpoints publish recovery counters.
var (
	_ raft.BridgeReporter = (*Sender[int])(nil)
	_ raft.BridgeReporter = (*Receiver[int])(nil)
)
