package oar

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raftlib/internal/fault"
	"raftlib/kernels"
	"raftlib/raft"
)

// collectSink gathers int64 elements in arrival order with a live counter,
// so tests can both synchronize on progress and verify exactly-once
// delivery afterwards.
type collectSink struct {
	mu    sync.Mutex
	got   []int64
	count atomic.Int64
}

func (c *collectSink) kernel() raft.Kernel {
	return raft.NewLambda[int64](1, 0, func(k *raft.LambdaKernel) raft.Status {
		v, err := raft.Pop[int64](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		c.mu.Lock()
		c.got = append(c.got, v)
		c.mu.Unlock()
		c.count.Add(1)
		return raft.Proceed
	})
}

func (c *collectSink) values() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.got))
	copy(out, c.got)
	return out
}

func (c *collectSink) waitFor(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.count.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("sink stuck at %d/%d elements", c.count.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// runBridge drives n generated elements through a bridge under the given
// options and returns the collected output plus both Exe errors.
func runBridge(t *testing.T, node *Node, stream string, n int64, opts ...BridgeOption) ([]int64, error, error) {
	t.Helper()
	send, recv, err := Bridge[int64](node, stream, opts...)
	if err != nil {
		t.Fatal(err)
	}
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(n, func(i int64) int64 { return i }), send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()
	wg.Wait()
	return sink.values(), errs[0], errs[1]
}

// requireExactSequence asserts lossless, duplicate-free, in-order arrival.
func requireExactSequence(t *testing.T, got []int64, n int64) {
	t.Helper()
	if int64(len(got)) != n {
		t.Fatalf("received %d elements, want %d (healing must be exactly-once)", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestBridgeHealsSeveredConnection(t *testing.T) {
	node := newTestNode(t, "sever")
	const n = 5000
	inj := fault.New()
	inj.SeverBridge("cut", 2)
	inj.SeverBridge("cut", 6)
	got, perr, cerr := runBridge(t, node, "cut", n, WithBridgeFault(inj),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if perr != nil || cerr != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", perr, cerr)
	}
	requireExactSequence(t, got, n)
	if inj.Fired("sever") != 2 {
		t.Fatalf("severs fired = %d, want 2", inj.Fired("sever"))
	}
}

func TestBridgeHealsCorruptedFrame(t *testing.T) {
	node := newTestNode(t, "corrupt")
	const n = 5000
	inj := fault.New()
	inj.CorruptBridge("garble", 3)
	got, perr, cerr := runBridge(t, node, "garble", n, WithBridgeFault(inj),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if perr != nil || cerr != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", perr, cerr)
	}
	requireExactSequence(t, got, n)
	if inj.Fired("corrupt") != 1 {
		t.Fatalf("corruptions fired = %d, want 1", inj.Fired("corrupt"))
	}
}

func TestBridgeSurvivesInjectedDelay(t *testing.T) {
	node := newTestNode(t, "slow")
	const n = 2000
	inj := fault.New()
	inj.DelayBridge("lag", 3, time.Millisecond)
	got, perr, cerr := runBridge(t, node, "lag", n, WithBridgeFault(inj))
	if perr != nil || cerr != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", perr, cerr)
	}
	requireExactSequence(t, got, n)
	if inj.Fired("delay") == 0 {
		t.Fatal("no delays fired")
	}
}

func TestBridgeReportsRecoveryStats(t *testing.T) {
	node := newTestNode(t, "stats")
	send, recv, err := Bridge[int64](node, "counted",
		WithBridgeFault(func() *fault.Injector {
			inj := fault.New()
			inj.SeverBridge("counted", 2)
			return inj
		}()),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(1000, func(i int64) int64 { return i }), send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _ = producer.Exe() }()
	go func() { defer wg.Done(); _, _ = consumer.Exe() }()
	wg.Wait()

	sr, ok := send.BridgeStats()
	if !ok {
		t.Fatal("sender stats not available after Exe")
	}
	if sr.Stream != "counted" || sr.Reconnects < 1 {
		t.Fatalf("sender stats = %+v, want >=1 reconnect", sr)
	}
	if sr.Downtime <= 0 {
		t.Fatalf("sender downtime = %v, want > 0", sr.Downtime)
	}
	rr, ok := recv.BridgeStats()
	if !ok {
		t.Fatal("receiver stats not available after Exe")
	}
	if rr.Reconnects < 1 {
		t.Fatalf("receiver stats = %+v, want >=1 reconnect", rr)
	}
}

func TestCompressedBridgeHeals(t *testing.T) {
	node := newTestNode(t, "zip")
	const n = 3000
	inj := fault.New()
	inj.SeverBridge("packed", 2)
	send, recv, err := BridgeCompressed[int64](node, "packed", WithBridgeFault(inj),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(n, func(i int64) int64 { return i }), send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", errs[0], errs[1])
	}
	requireExactSequence(t, sink.values(), n)
	if inj.Fired("sever") != 1 {
		t.Fatalf("severs fired = %d, want 1", inj.Fired("sever"))
	}
}

func TestBridgeHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	node := newTestNode(t, "idle")
	send, recv, err := Bridge[int64](node, "quiet",
		WithHeartbeat(25*time.Millisecond), WithPeerTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	feed := make(chan int64, 2)
	producer := raft.NewMap()
	src := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
		v, ok := <-feed
		if !ok {
			return raft.Stop
		}
		if err := raft.Push(k.Out("0"), v); err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	if _, err := producer.Link(src, send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()

	feed <- 0
	sink.waitFor(t, 1)
	// Idle far longer than the receiver's liveness deadline: heartbeats
	// must keep the connection demonstrably alive, with no reconnect churn.
	time.Sleep(400 * time.Millisecond)
	feed <- 1
	close(feed)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", errs[0], errs[1])
	}
	requireExactSequence(t, sink.values(), 2)
	if rr, _ := recv.BridgeStats(); rr.Reconnects != 0 {
		t.Fatalf("receiver reconnects = %d, want 0 (heartbeats should prevent churn)", rr.Reconnects)
	}
}

// runDegradation drives a bridge into a permanent outage: three elements
// flow one frame each, then the node is shut down and a sever is injected,
// so reconnection is impossible and the policy must fire.
func runDegradation(t *testing.T, policy Policy) (sendErr, recvErr error, send *Sender[int64], delivered []int64) {
	t.Helper()
	node, err := NewNode("doomed-"+fmt.Sprint(policy), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	inj := fault.New()
	inj.SeverBridge("fragile", 4)
	var recv *Receiver[int64]
	send, recv, err = Bridge[int64](node, "fragile",
		WithBridgeFault(inj),
		WithPolicy(policy),
		WithMaxDowntime(150*time.Millisecond),
		WithReconnectBackoff(time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	feed := make(chan int64, 16)
	producer := raft.NewMap()
	src := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
		v, ok := <-feed
		if !ok {
			return raft.Stop
		}
		if err := raft.Push(k.Out("0"), v); err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	if _, err := producer.Link(src, send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()

	// One frame per element: wait for each arrival before feeding the next.
	for i := int64(0); i < 3; i++ {
		feed <- i
		sink.waitFor(t, i+1)
	}
	// Take the listener down, then feed the frame the sever rule hits:
	// the sender cannot reconnect and the outage becomes permanent.
	node.Close()
	for i := int64(3); i < 10; i++ {
		feed <- i
	}
	close(feed)
	wg.Wait()
	return errs[0], errs[1], send, sink.values()
}

func TestBridgeFailPolicyRaisesBridgeDown(t *testing.T) {
	sendErr, recvErr, _, delivered := runDegradation(t, Fail)
	if !errors.Is(sendErr, raft.ErrBridgeDown) {
		t.Errorf("producer err %v does not wrap ErrBridgeDown", sendErr)
	}
	if !errors.Is(recvErr, raft.ErrBridgeDown) {
		t.Errorf("consumer err %v does not wrap ErrBridgeDown", recvErr)
	}
	requireExactSequence(t, delivered, 3) // pre-outage traffic was delivered
}

func TestBridgeDropPolicyDegradesGracefully(t *testing.T) {
	sendErr, recvErr, send, delivered := runDegradation(t, Drop)
	if sendErr != nil {
		t.Errorf("producer err = %v, want nil under Drop policy", sendErr)
	}
	if recvErr != nil {
		t.Errorf("consumer err = %v, want nil under Drop policy", recvErr)
	}
	requireExactSequence(t, delivered, 3)
	sr, _ := send.BridgeStats()
	if sr.Dropped == 0 {
		t.Fatalf("sender stats = %+v, want dropped > 0", sr)
	}
}

func TestTransientClassification(t *testing.T) {
	if !errors.Is(fmt.Errorf("wrap: %w", ErrPeerGone), ErrPeerGone) {
		t.Error("wrapped ErrPeerGone not classified transient")
	}
	if errors.Is(fmt.Errorf("wrap: %w", raft.ErrBridgeDown), ErrPeerGone) {
		t.Error("ErrBridgeDown must be permanent, not transient")
	}
}

// TestBridgeSenderStopsWhenItsExecutionFails: a loopback bridge in one map
// whose receiving kernel panics mid-stream. The receiver stops and releases
// its stream, so every redial of the sender is refused; the sender must give
// up on the execution's failure, not wait out MaxDowntime (15 s by default).
func TestBridgeSenderStopsWhenItsExecutionFails(t *testing.T) {
	node := newTestNode(t, "fails")
	send, recv, err := Bridge[int64](node, "fails")
	if err != nil {
		t.Fatal(err)
	}
	fragile := raft.NewLambdaIO[int64, int64](1, 1, func(k *raft.LambdaKernel) raft.Status {
		v, err := raft.Pop[int64](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		if v == 999 {
			panic("element 1000")
		}
		if err := raft.Push(k.Out("0"), v); err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	var got []int64
	m := raft.NewMap()
	m.MustLink(kernels.NewGenerate(1<<20, func(i int64) int64 { return i }), send)
	m.MustLink(recv, fragile)
	m.MustLink(fragile, kernels.NewWriteEach(&got))
	start := time.Now()
	_, err = m.Exe()
	took := time.Since(start)
	if !errors.Is(err, raft.ErrKernelPanicked) {
		t.Fatalf("Exe = %v, want the receiving kernel's panic", err)
	}
	if took > 2*time.Second {
		t.Fatalf("Exe took %v after the panic, want < 2s", took)
	}
	t.Logf("%d results in %v, then: %v", len(got), took, err)
}
