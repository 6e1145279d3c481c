package oar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"raftlib/internal/ringbuffer"
	"raftlib/kernels"
	"raftlib/raft"
)

// Frame kinds the fuzz target asks a sender to emit.
const (
	kindRaw = iota
	kindRawSigs
	kindEOF
	kindHB
	kindGob
	numKinds
)

// FuzzBridgeFrame checks the binary frame from both ends. Every frame a
// sender can emit (raw data with and without signals, EOF, heartbeat,
// inner-gob data; each data frame with and without a marker sidecar) reads
// back exactly and consumes exactly its own bytes. Arbitrary bytes never
// panic the reader, and no corrupt length makes it hold more memory than
// the stream carried or than the raw batch bound.
func FuzzBridgeFrame(f *testing.F) {
	eight := []byte("\x01\x00\x00\x00\x00\x00\x00\x80\x02\x01\x00\x00\x00\x00\x00\x00")
	for kind := uint8(0); kind < numKinds; kind++ {
		f.Add(kind, uint64(1), []byte(nil), eight, []byte(nil))
		f.Add(kind, uint64(1<<40), []byte("sidecar"), eight, []byte("junk"))
	}
	var wire bytes.Buffer
	s := newBenchSender(&wire)
	s.stage([]int64{1, 2, 3}, nil)
	s.stageEOF()
	_ = s.writeSeq(1)
	_ = s.writeSeq(2)
	f.Add(uint8(kindRaw), uint64(1), []byte(nil), []byte(nil), wire.Bytes())
	f.Fuzz(func(t *testing.T, kind uint8, seq uint64, marks, vals, junk []byte) {
		seq = seq%(1<<62) + 1
		if len(marks) == 0 {
			marks = nil // a marker-free sender stages no sidecar
		}
		roundTrip(t, int(kind%numKinds), seq, marks, vals)
		readJunk[int64](t, junk, seq%4)
		readJunk[string](t, junk, seq%4)
	})
}

// roundTrip emits one frame of the given kind through a sender's own write
// path and reads it back through a receiver's (two frames in a row for the
// inner-gob kind, whose decoder state persists across frames).
func roundTrip(t *testing.T, kind int, seq uint64, marks, raw []byte) {
	var wire bytes.Buffer
	n := min(len(raw)/8, senderBatch)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	var sigs []raft.Signal
	if kind == kindRawSigs || kind == kindGob {
		sigs = make([]raft.Signal, n)
		for i := range sigs {
			sigs[i] = raft.Signal(raw[i] % 4)
		}
	}
	wantSigs := sigs
	if allSigNone(sigs) {
		wantSigs = nil
	}
	s := newBenchSender(&wire)
	s.nextSeq = seq - 1
	r := &Receiver[int64]{reuseVals: true, rd: &wire}
	wantFlags, wantMarks := byte(flagRaw), marks
	switch kind {
	case kindRaw, kindRawSigs:
		s.stageMarks = marks
		if got, _ := s.stage(vals, sigs); got != seq {
			t.Fatalf("staged seq %d, want %d", got, seq)
		}
		mustWrite(t, s.writeSeq(seq))
	case kindEOF:
		s.stageEOF()
		mustWrite(t, s.writeSeq(seq))
		wantFlags, wantMarks = flagEOF, nil
	case kindHB:
		s.mu.Lock()
		mustWrite(t, s.writeHeartbeatLocked())
		s.mu.Unlock()
		wantFlags, wantMarks, seq = flagHB, nil, 0
	case kindGob:
		roundTripGob(t, seq, marks, vals, wantSigs)
		return
	}
	h, dup, err := r.readFrame()
	if err != nil || dup {
		t.Fatalf("kind %d: read back: dup %v, err %v", kind, dup, err)
	}
	if h.flags != wantFlags || h.seq != seq {
		t.Fatalf("kind %d: header flags %#x seq %d, want %#x seq %d", kind, h.flags, h.seq, wantFlags, seq)
	}
	if wire.Len() != 0 {
		t.Fatalf("kind %d: %d bytes left after the frame", kind, wire.Len())
	}
	if h.flags != flagRaw {
		return
	}
	if !bytes.Equal(r.marks, wantMarks) {
		t.Fatalf("sidecar %q, want %q", r.marks, wantMarks)
	}
	if !slices.Equal(r.pl.Vals, vals) || !slices.Equal(r.pl.Sigs, wantSigs) {
		t.Fatalf("raw batch %v/%v, want %v/%v", r.pl.Vals, r.pl.Sigs, vals, wantSigs)
	}
}

// roundTripGob sends the batch, as strings, twice on one inner-gob stream.
func roundTripGob(t *testing.T, seq uint64, marks []byte, vals []int64, sigs []raft.Signal) {
	var wire bytes.Buffer
	s := NewSender[string]("unused", "fuzz-gob")
	s.w = &wire
	s.nextSeq = seq - 1
	strs := make([]string, len(vals))
	for i, v := range vals {
		strs[i] = fmt.Sprint(v)
	}
	sendSigs := sigs
	if sendSigs == nil && len(vals) > 0 {
		sendSigs = make([]raft.Signal, len(vals)) // all SigNone: omitted
	}
	r := &Receiver[string]{rd: &wire}
	for k := uint64(0); k < 2; k++ {
		s.stageMarks = marks
		if _, st := s.stage(strs, sendSigs); st != raft.Proceed {
			t.Fatal("inner-gob stage did not proceed")
		}
		mustWrite(t, s.writeSeq(seq+k))
		h, dup, err := r.readFrame()
		if err != nil || dup || h.flags != 0 || h.seq != seq+k || wire.Len() != 0 {
			t.Fatalf("gob frame %d: flags %#x seq %d dup %v err %v, %d bytes left", k, h.flags, h.seq, dup, err, wire.Len())
		}
		r.delivered = h.seq
		if !bytes.Equal(r.marks, marks) {
			t.Fatalf("gob sidecar %q, want %q", r.marks, marks)
		}
		if len(r.pl.Vals) != len(strs) || (len(strs) > 0 && !slices.Equal(r.pl.Vals, strs)) {
			t.Fatalf("gob batch %q, want %q", r.pl.Vals, strs)
		}
		if len(r.pl.Sigs) != len(sigs) || (len(sigs) > 0 && !slices.Equal(r.pl.Sigs, sigs)) {
			t.Fatalf("gob signals %v, want %v", r.pl.Sigs, sigs)
		}
	}
}

func mustWrite(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("frame write: %v", err)
	}
}

// readJunk feeds arbitrary bytes to a receiver until it refuses them. It
// must not panic, and whatever lengths the bytes claim, the receiver's
// buffers may hold no more than about twice the bytes it was given, and its
// raw batch no more than the raw frame bound.
func readJunk[T any](t *testing.T, junk []byte, delivered uint64) {
	r := &Receiver[T]{
		reuseVals: ringbuffer.PointerFree(reflect.TypeFor[T]()),
		rd:        bytes.NewReader(junk),
		delivered: delivered,
	}
	for {
		h, dup, err := r.readFrame()
		if err != nil {
			break
		}
		if !dup && h.seq > r.delivered {
			r.delivered = h.seq
		}
	}
	limit := 2*len(junk) + 4096
	if cap(r.marks) > limit || cap(r.buf) > limit {
		t.Fatalf("%d junk bytes grew sidecar/blob buffers to %d/%d", len(junk), cap(r.marks), cap(r.buf))
	}
	if r.reuseVals {
		var zero T
		if held := cap(r.pl.Vals) * int(reflect.TypeOf(zero).Size()); held > r.dataBound(flagRaw) {
			t.Fatalf("raw batch holds %d bytes, bound %d", held, r.dataBound(flagRaw))
		}
	}
}

// TestBridgeHealsMalformedFrame plays the sender's side of a bridge by
// hand. A frame with a bad magic, and later one whose data length is over
// the bound, must each cost only their connection: the receiver drops it
// through the heal path, takes the next connection, and the replayed
// frames are delivered exactly once.
func TestBridgeHealsMalformedFrame(t *testing.T) {
	node := newTestNode(t, "malformed")
	recv, err := NewReceiver[int64](node, "bad")
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := consumer.Exe(); done <- err }()

	// A sender stages frames 1–3 (ten elements each) and the EOF frame 4;
	// frameBytes renders one as it would go on the wire.
	s := newBenchSender(nil)
	for lo := int64(0); lo < 30; lo += 10 {
		vals := []int64{lo, lo + 1, lo + 2, lo + 3, lo + 4, lo + 5, lo + 6, lo + 7, lo + 8, lo + 9}
		if _, st := s.stage(vals, nil); st != raft.Proceed {
			t.Fatal("stage did not proceed")
		}
	}
	s.stageEOF()
	frameBytes := func(seq uint64) []byte {
		var b bytes.Buffer
		s.w = &b
		mustWrite(t, s.writeSeq(seq))
		return b.Bytes()
	}
	// play dials connection gen, writes the frames, and returns the
	// acks it reads until the receiver closes the connection.
	play := func(gen int, frames ...[]byte) []uint64 {
		t.Helper()
		conn, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := fmt.Fprintf(conn, "%s bad %d\n", hdrStream, gen); err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if _, err := conn.Write(f); err != nil {
				t.Fatal(err)
			}
		}
		var acks []uint64
		var b [8]byte
		for {
			if _, err := io.ReadFull(conn, b[:]); err != nil {
				if err != io.EOF {
					t.Fatalf("connection %d: reading acks: %v", gen, err)
				}
				return acks
			}
			acks = append(acks, binary.LittleEndian.Uint64(b[:]))
		}
	}

	// The bad frames are cut after their headers: the receiver must refuse
	// them there, and nothing it has not read is left when it hangs up.
	badMagic := frameBytes(2)[:frameHdrLen]
	badMagic[0] ^= 0xff
	if acks := play(0, frameBytes(1), badMagic); !slices.Equal(acks, []uint64{1}) {
		t.Fatalf("connection 0 acks %v, want [1] then a drop at the bad magic", acks)
	}
	overBound := frameBytes(3)[:frameHdrLen]
	binary.LittleEndian.PutUint32(overBound[20:], uint32(recv.dataBound(flagRaw)+1))
	if acks := play(1, frameBytes(1), frameBytes(2), overBound); !slices.Equal(acks, []uint64{1, 2}) {
		t.Fatalf("connection 1 acks %v, want [1 2] then a drop at the long frame", acks)
	}
	if acks := play(2, frameBytes(2), frameBytes(3), frameBytes(4)); !slices.Equal(acks, []uint64{2, 3, 4}) {
		t.Fatalf("connection 2 acks %v, want [2 3 4]", acks)
	}
	if err := <-done; err != nil {
		t.Fatalf("consumer Exe: %v", err)
	}
	requireExactSequence(t, sink.values(), 30)
	if rr, _ := recv.BridgeStats(); rr.Reconnects != 2 {
		t.Fatalf("receiver reconnects = %d, want 2", rr.Reconnects)
	}
}

// TestBridgeCompressedRoundTrip tunnels highly compressible text through a
// deflate-compressed bridge and verifies exact delivery.
func TestBridgeCompressedRoundTrip(t *testing.T) {
	node := newTestNode(t, "zworker")
	send, recv, err := BridgeCompressed[string](node, "ztext")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	producer := raft.NewMap()
	producer.MustLink(kernels.NewGenerate(n, func(i int64) string {
		return fmt.Sprintf("the same compressible line of text, sequence %d", i)
	}), send)
	var got []string
	consumer := raft.NewMap()
	consumer.MustLink(recv, kernels.NewWriteEach(&got))

	done := make(chan error, 2)
	go func() { _, err := producer.Exe(); done <- err }()
	go func() { _, err := consumer.Exe(); done <- err }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i, s := range got {
		if s != fmt.Sprintf("the same compressible line of text, sequence %d", i) {
			t.Fatalf("got[%d] = %q", i, s)
		}
	}
}
