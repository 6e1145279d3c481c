package oar

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"raftlib/kernels"
	"raftlib/raft"
)

func newTestNode(t testing.TB, id string) *Node {
	t.Helper()
	n, err := NewNode(id, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestNodeIdentity(t *testing.T) {
	n := newTestNode(t, "alpha")
	if n.ID() != "alpha" {
		t.Fatalf("id = %q", n.ID())
	}
	if n.Addr() == "" {
		t.Fatal("no address")
	}
}

func TestJoinExchangesInfo(t *testing.T) {
	a := newTestNode(t, "a")
	b := newTestNode(t, "b")
	if err := a.Join(b.Addr()); err != nil {
		t.Fatal(err)
	}
	// a learned b.
	peers := a.Peers()
	if len(peers) != 1 || peers[0].ID != "b" {
		t.Fatalf("a's peers = %+v", peers)
	}
	// b learned a (the exchange is bidirectional).
	peers = b.Peers()
	if len(peers) != 1 || peers[0].ID != "a" {
		t.Fatalf("b's peers = %+v", peers)
	}
}

func TestGossipTransitivity(t *testing.T) {
	a := newTestNode(t, "a")
	b := newTestNode(t, "b")
	c := newTestNode(t, "c")
	// a<->b, then c->b: c must learn about a through b.
	if err := a.Join(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(b.Addr()); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, p := range c.Peers() {
		ids[p.ID] = true
	}
	if !ids["a"] || !ids["b"] {
		t.Fatalf("c's view = %v, want a and b", ids)
	}
}

// TestStartGossipRefreshes checks that a's gossip loop keeps re-stamping
// its record in b's view: each exchange publishes a fresh Stamp.
func TestStartGossipRefreshes(t *testing.T) {
	a := newTestNode(t, "a")
	b := newTestNode(t, "b")
	if err := a.Join(b.Addr()); err != nil {
		t.Fatal(err)
	}
	stampOfA := func() time.Time {
		for _, p := range b.Peers() {
			if p.ID == "a" {
				return p.Stamp
			}
		}
		return time.Time{}
	}
	first := stampOfA()
	if first.IsZero() {
		t.Fatal("b has no record of a after the join")
	}
	a.StartGossip(20 * time.Millisecond)
	deadline := time.Now().Add(3 * time.Second)
	for !stampOfA().After(first) {
		if time.Now().After(deadline) {
			t.Fatal("gossip loop never refreshed a's record in b's view")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServiceCall(t *testing.T) {
	n := newTestNode(t, "svc")
	n.RegisterService("add", func(req map[string]string) (map[string]string, error) {
		x, _ := strconv.Atoi(req["x"])
		y, _ := strconv.Atoi(req["y"])
		return map[string]string{"sum": strconv.Itoa(x + y)}, nil
	})
	resp, err := Call(n.Addr(), "add", map[string]string{"x": "2", "y": "40"})
	if err != nil {
		t.Fatal(err)
	}
	if resp["sum"] != "42" {
		t.Fatalf("sum = %q", resp["sum"])
	}
}

func TestServiceErrors(t *testing.T) {
	n := newTestNode(t, "svc")
	n.RegisterService("boom", func(req map[string]string) (map[string]string, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	if _, err := Call(n.Addr(), "boom", nil); err == nil {
		t.Fatal("service error must propagate")
	}
	if _, err := Call(n.Addr(), "missing", nil); err == nil {
		t.Fatal("unknown service must error")
	}
}

func TestCallUnreachable(t *testing.T) {
	if _, err := Call("127.0.0.1:1", "x", nil); err == nil {
		t.Fatal("dial failure must error")
	}
}

func TestStreamDuplicateRegistration(t *testing.T) {
	n := newTestNode(t, "dup")
	if _, err := NewReceiver[int](n, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReceiver[int](n, "s"); err == nil {
		t.Fatal("duplicate stream registration must error")
	}
}

// TestBridgeStreamNameReusable bridges a stream twice in a row under one
// name on one node: a finished receiver gives its name back.
func TestBridgeStreamNameReusable(t *testing.T) {
	node := newTestNode(t, "again")
	for i := 0; i < 2; i++ {
		got, perr, cerr := runBridge(t, node, "s", 1000)
		if perr != nil || cerr != nil {
			t.Fatalf("run %d: producer=%v consumer=%v", i, perr, cerr)
		}
		requireExactSequence(t, got, 1000)
	}
}

// TestBridgeDistributedSum runs the paper's distributed claim end to end:
// the same sum application, with the producer half and consumer half in
// separate maps connected by a real TCP stream.
func TestBridgeDistributedSum(t *testing.T) {
	node := newTestNode(t, "worker")
	const n = 10_000

	send, recv, err := Bridge[int64](node, "numbers")
	if err != nil {
		t.Fatal(err)
	}

	// Producer process: generate -> tcp-send.
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(n, func(i int64) int64 { return i }), send); err != nil {
		t.Fatal(err)
	}

	// Consumer process: tcp-recv -> reduce.
	var total int64
	consumer := raft.NewMap()
	red := kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total)
	if _, err := consumer.Link(recv, red); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	want := int64(n) * (n - 1) / 2
	if total != want {
		t.Fatalf("distributed sum = %d, want %d", total, want)
	}
}

func TestBridgeCarriesSignals(t *testing.T) {
	node := newTestNode(t, "sig")
	send, recv, err := Bridge[int32](node, "sigs")
	if err != nil {
		t.Fatal(err)
	}
	producer := raft.NewMap()
	src := raft.NewLambda[int32](0, 1, func(k *raft.LambdaKernel) raft.Status {
		if err := raft.PushSig(k.Out("0"), int32(5), raft.SigUser); err != nil {
			return raft.Stop
		}
		return raft.Stop
	})
	if _, err := producer.Link(src, send); err != nil {
		t.Fatal(err)
	}

	var gotSig raft.Signal
	consumer := raft.NewMap()
	sink := raft.NewLambda[int32](1, 0, func(k *raft.LambdaKernel) raft.Status {
		_, s, err := raft.PopSig[int32](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		gotSig = s
		return raft.Proceed
	})
	if _, err := consumer.Link(recv, sink); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _ = producer.Exe() }()
	go func() { defer wg.Done(); _, _ = consumer.Exe() }()
	wg.Wait()
	if gotSig != raft.SigUser {
		t.Fatalf("signal over TCP = %v, want user", gotSig)
	}
}

func TestReceiverTimesOutWithoutSender(t *testing.T) {
	node := newTestNode(t, "lonely")
	recv, err := NewReceiver[int](node, "never", WithFirstConnect(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Init(); err == nil {
		t.Fatal("receiver must time out when no sender connects")
	}
}

func TestMergeNewestStampWins(t *testing.T) {
	n := newTestNode(t, "self")
	now := time.Now()
	n.merge(NodeInfo{ID: "p", Addr: "now", Stamp: now})
	n.merge(NodeInfo{ID: "p", Addr: "stale", Stamp: now.Add(-time.Second)})
	peers := n.Peers()
	if len(peers) != 1 || peers[0].Addr != "now" {
		t.Fatalf("stale record overwrote newer: %+v", peers)
	}
	n.merge(NodeInfo{ID: "p", Addr: "fresher", Stamp: now.Add(time.Second)})
	if got := n.Peers()[0].Addr; got != "fresher" {
		t.Fatalf("fresher record ignored: %v", got)
	}
	// Self and empty IDs are never merged.
	n.merge(NodeInfo{ID: "self", Stamp: now.Add(time.Hour)})
	n.merge(NodeInfo{ID: "", Stamp: now.Add(time.Hour)})
	if len(n.Peers()) != 1 {
		t.Fatalf("self/empty merged: %+v", n.Peers())
	}
}
