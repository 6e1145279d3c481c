package oar

import (
	"fmt"
	"strconv"
	"testing"

	"raftlib/kernels"
	"raftlib/raft"
)

// TestRemoteStageEndToEnd splices a multiply-by-k kernel running "on" a
// worker node into a local pipeline.
func TestRemoteStageEndToEnd(t *testing.T) {
	worker := newTestNode(t, "worker")
	RegisterStage[int64, int64](worker, "scale", func(args map[string]string) (raft.Kernel, error) {
		k, err := strconv.ParseInt(args["factor"], 10, 64)
		if err != nil {
			return nil, err
		}
		return raft.NewLambdaIO[int64, int64](1, 1, func(lk *raft.LambdaKernel) raft.Status {
			v, err := raft.Pop[int64](lk.In("0"))
			if err != nil {
				return raft.Stop
			}
			if err := raft.Push(lk.Out("0"), k*v); err != nil {
				return raft.Stop
			}
			return raft.Proceed
		}), nil
	})

	send, recv, err := RemoteStage[int64, int64](worker.Addr(), "scale", map[string]string{"factor": "3"})
	if err != nil {
		t.Fatal(err)
	}

	const n = 5000
	m := raft.NewMap()
	var got []int64
	m.MustLink(kernels.NewGenerate(n, func(i int64) int64 { return i }), send)
	m.MustLink(recv, kernels.NewWriteEach(&got))
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(3*i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, 3*i)
		}
	}
}

// TestRemoteStageTypeChange runs a stage whose output type differs from
// its input type (int64 -> float64).
func TestRemoteStageTypeChange(t *testing.T) {
	worker := newTestNode(t, "worker")
	RegisterStage[int64, float64](worker, "halve", func(args map[string]string) (raft.Kernel, error) {
		return raft.NewLambdaIO[int64, float64](1, 1, func(lk *raft.LambdaKernel) raft.Status {
			v, err := raft.Pop[int64](lk.In("0"))
			if err != nil {
				return raft.Stop
			}
			if err := raft.Push(lk.Out("0"), float64(v)/2); err != nil {
				return raft.Stop
			}
			return raft.Proceed
		}), nil
	})
	send, recv, err := RemoteStage[int64, float64](worker.Addr(), "halve", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := raft.NewMap()
	var got []float64
	m.MustLink(kernels.NewGenerate(10, func(i int64) int64 { return i }), send)
	m.MustLink(recv, kernels.NewWriteEach(&got))
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[9] != 4.5 {
		t.Fatalf("got %v", got)
	}
}

// TestRemoteStageCarriesSignals sends a user signal on every third element
// through a remote stage that forwards signals, and checks that each
// element comes back with its own signal — also the ones that are not the
// first of their wire frame.
func TestRemoteStageCarriesSignals(t *testing.T) {
	worker := newTestNode(t, "worker")
	RegisterStage[int64, int64](worker, "relay", func(map[string]string) (raft.Kernel, error) {
		return raft.NewLambdaIO[int64, int64](1, 1, func(lk *raft.LambdaKernel) raft.Status {
			v, sig, err := raft.PopSig[int64](lk.In("0"))
			if err != nil {
				return raft.Stop
			}
			if err := raft.PushSig(lk.Out("0"), v, sig); err != nil {
				return raft.Stop
			}
			return raft.Proceed
		}), nil
	})
	send, recv, err := RemoteStage[int64, int64](worker.Addr(), "relay", nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	sigOf := func(i int64) raft.Signal {
		if i%3 == 2 {
			return raft.SigUser
		}
		return raft.SigNone
	}
	var next int64
	src := raft.NewLambda[int64](0, 1, func(lk *raft.LambdaKernel) raft.Status {
		if next == n {
			return raft.Stop
		}
		if err := raft.PushSig(lk.Out("0"), next, sigOf(next)); err != nil {
			return raft.Stop
		}
		next++
		return raft.Proceed
	})
	var got []int64
	var sigs []raft.Signal
	sink := raft.NewLambda[int64](1, 0, func(lk *raft.LambdaKernel) raft.Status {
		v, sig, err := raft.PopSig[int64](lk.In("0"))
		if err != nil {
			return raft.Stop
		}
		got, sigs = append(got, v), append(sigs, sig)
		return raft.Proceed
	})
	m := raft.NewMap()
	m.MustLink(src, send)
	m.MustLink(recv, sink)
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d elements, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) || sigs[i] != sigOf(int64(i)) {
			t.Fatalf("element %d = %d with signal %v, want %d with %v", i, v, sigs[i], i, sigOf(int64(i)))
		}
	}
}

func TestRemoteStageUnregistered(t *testing.T) {
	worker := newTestNode(t, "worker")
	if _, _, err := RemoteStage[int64, int64](worker.Addr(), "nope", nil); err == nil {
		t.Fatal("unregistered stage must error")
	}
}

func TestRemoteStageFactoryError(t *testing.T) {
	worker := newTestNode(t, "worker")
	RegisterStage[int64, int64](worker, "bad", func(args map[string]string) (raft.Kernel, error) {
		return nil, fmt.Errorf("cannot build")
	})
	if _, _, err := RemoteStage[int64, int64](worker.Addr(), "bad", nil); err == nil {
		t.Fatal("factory error must propagate as spawn failure")
	}
}

func TestRemoteStageUnreachableNode(t *testing.T) {
	if _, _, err := RemoteStage[int64, int64]("127.0.0.1:1", "x", nil); err == nil {
		t.Fatal("dial failure must error")
	}
}

// TestRemoteStageConcurrentInstances runs two independent instances of the
// same registered stage at once.
func TestRemoteStageConcurrentInstances(t *testing.T) {
	worker := newTestNode(t, "worker")
	RegisterStage[int64, int64](worker, "inc", func(args map[string]string) (raft.Kernel, error) {
		return raft.NewLambdaIO[int64, int64](1, 1, func(lk *raft.LambdaKernel) raft.Status {
			v, err := raft.Pop[int64](lk.In("0"))
			if err != nil {
				return raft.Stop
			}
			if err := raft.Push(lk.Out("0"), v+1); err != nil {
				return raft.Stop
			}
			return raft.Proceed
		}), nil
	})

	results := make(chan int, 2)
	for inst := 0; inst < 2; inst++ {
		go func() {
			send, recv, err := RemoteStage[int64, int64](worker.Addr(), "inc", nil)
			if err != nil {
				results <- -1
				return
			}
			m := raft.NewMap()
			var got []int64
			m.MustLink(kernels.NewGenerate(1000, func(i int64) int64 { return i }), send)
			m.MustLink(recv, kernels.NewWriteEach(&got))
			if _, err := m.Exe(); err != nil {
				results <- -1
				return
			}
			results <- len(got)
		}()
	}
	for i := 0; i < 2; i++ {
		if n := <-results; n != 1000 {
			t.Fatalf("instance returned %d results", n)
		}
	}
}

// TestBridgeCompressedRoundTrip tunnels highly compressible text through a
// deflate-compressed bridge and verifies exact delivery.
func TestBridgeCompressedRoundTrip(t *testing.T) {
	node := newTestNode2(t, "zworker")
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

// newTestNode2 mirrors newTestNode for files appended later.
func newTestNode2(t *testing.T, id string) *Node {
	t.Helper()
	n, err := NewNode(id, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}
