package oar

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"raftlib/internal/fault"
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

	send, recv, err := RemoteStage[int64, int64](newTestNode(t, "local"), worker.Addr(), "scale", map[string]string{"factor": "3"})
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
	send, recv, err := RemoteStage[int64, float64](newTestNode(t, "local"), worker.Addr(), "halve", nil)
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
	send, recv, err := RemoteStage[int64, int64](newTestNode(t, "local"), worker.Addr(), "relay", nil)
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
	if _, _, err := RemoteStage[int64, int64](newTestNode(t, "local"), worker.Addr(), "nope", nil); err == nil {
		t.Fatal("unregistered stage must error")
	}
}

func TestRemoteStageFactoryError(t *testing.T) {
	worker := newTestNode(t, "worker")
	RegisterStage[int64, int64](worker, "bad", func(args map[string]string) (raft.Kernel, error) {
		return nil, fmt.Errorf("cannot build")
	})
	_, _, err := RemoteStage[int64, int64](newTestNode(t, "local"), worker.Addr(), "bad", nil)
	if err == nil || !strings.Contains(err.Error(), "cannot build") {
		t.Fatalf("spawn error %v, want the factory's own message", err)
	}
}

func TestRemoteStageUnreachableNode(t *testing.T) {
	if _, _, err := RemoteStage[int64, int64](newTestNode(t, "local"), "127.0.0.1:1", "x", nil); err == nil {
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

	local := newTestNode(t, "local")
	results := make(chan int, 2)
	for inst := 0; inst < 2; inst++ {
		go func() {
			send, recv, err := RemoteStage[int64, int64](local, worker.Addr(), "inc", nil)
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

// relayStage is a stage factory whose kernel forwards every element as it
// came.
func relayStage[T any](map[string]string) (raft.Kernel, error) {
	return raft.NewLambdaIO[T, T](1, 1, func(lk *raft.LambdaKernel) raft.Status {
		v, err := raft.Pop[T](lk.In("0"))
		if err != nil {
			return raft.Stop
		}
		if err := raft.Push(lk.Out("0"), v); err != nil {
			return raft.Stop
		}
		return raft.Proceed
	}), nil
}

// streamCount reads the size of n's stream table.
func streamCount(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.streams)
}

func TestRemoteStageRejectsReservedArgs(t *testing.T) {
	worker, local := newTestNode(t, "worker"), newTestNode(t, "local")
	RegisterStage[int64, int64](worker, "relay", relayStage[int64])
	for _, key := range []string{keyReplyAddr, keyReplyStream} {
		if _, _, err := RemoteStage[int64, int64](local, worker.Addr(), "relay", map[string]string{key: "x"}); err == nil {
			t.Fatalf("argument %q must be rejected", key)
		}
	}
	if n := streamCount(local); n != 0 {
		t.Fatalf("rejected calls left %d streams registered", n)
	}
}

// TestRemoteStageReleasesStreams runs 100 stage calls one after another and
// then one that fails: every finished or failed call gives its stream names
// back, so neither node's stream table grows.
func TestRemoteStageReleasesStreams(t *testing.T) {
	worker, local := newTestNode(t, "worker"), newTestNode(t, "local")
	RegisterStage[int64, int64](worker, "relay", relayStage[int64])
	for i := 0; i < 100; i++ {
		send, recv, err := RemoteStage[int64, int64](local, worker.Addr(), "relay", nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		m := raft.NewMap()
		m.MustLink(kernels.NewGenerate(10, func(i int64) int64 { return i }), send)
		m.MustLink(recv, kernels.NewWriteEach(&got))
		if _, err := m.Exe(); err != nil || len(got) != 10 {
			t.Fatalf("call %d: %d results, err %v", i, len(got), err)
		}
	}
	if _, _, err := RemoteStage[int64, int64](local, worker.Addr(), "nope", nil); err == nil {
		t.Fatal("unregistered stage must error")
	}
	// The stage's own run ends just after the caller's, when its sender
	// has seen the last acknowledgment.
	deadline := time.Now().Add(5 * time.Second)
	for streamCount(worker) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w, l := streamCount(worker), streamCount(local); w != 0 || l != 0 {
		t.Fatalf("streams left registered: worker %d, local %d", w, l)
	}
}

// TestChaosRemoteStageSeveredMidRun cuts a stage connection mid-run, once
// toward the stage and once back from it: the bridges heal, the sum stays
// exact and the caller's Report counts the reconnect.
func TestChaosRemoteStageSeveredMidRun(t *testing.T) {
	for _, cut := range []string{"sum.in#1", "sum.out#1"} {
		t.Run(cut, func(t *testing.T) {
			// Fresh nodes, so the first call's streams carry the numbers #1.
			worker, local := newTestNode(t, "worker"), newTestNode(t, "local")
			inj := fault.New()
			inj.SeverBridge(cut, 3)
			opts := []BridgeOption{WithBridgeFault(inj), WithReconnectBackoff(time.Millisecond, 50*time.Millisecond)}
			registerStage[int64, int64](worker, "sum", relayStage[int64], opts...)
			send, recv, err := remoteStage[int64, int64](local, worker.Addr(), "sum", nil, opts...)
			if err != nil {
				t.Fatal(err)
			}
			const n = 20_000
			var total int64
			m := raft.NewMap()
			m.MustLink(kernels.NewGenerate(n, func(i int64) int64 { return i }), send)
			m.MustLink(recv, kernels.NewReduce(func(a, v int64) int64 { return a + v }, 0, &total))
			rep, err := m.Exe()
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(n) * (n - 1) / 2; total != want {
				t.Fatalf("sum = %d, want %d", total, want)
			}
			if inj.Fired("sever") != 1 {
				t.Fatalf("severs fired = %d, want 1", inj.Fired("sever"))
			}
			for _, b := range rep.Bridges {
				if b.Stream == cut {
					if b.Reconnects < 1 {
						t.Fatalf("bridge %s: %d reconnects, want >= 1", cut, b.Reconnects)
					}
					return
				}
			}
			t.Fatalf("no bridge %s in the Report (%v)", cut, rep.Bridges)
		})
	}
}

// BenchmarkRemoteStage drives b.N elements through a relay stage on
// loopback and reports items/s, for a pointer-free element (raw frames)
// and a []byte one (inner gob).
func BenchmarkRemoteStage(b *testing.B) {
	b.Run("int64", func(b *testing.B) {
		benchRemoteStage(b, func(i int64) int64 { return i })
	})
	b.Run("bytes", func(b *testing.B) {
		elem := make([]byte, 64)
		benchRemoteStage(b, func(int64) []byte { return elem })
	})
}

func benchRemoteStage[T any](b *testing.B, gen func(int64) T) {
	worker, local := newTestNode(b, "worker"), newTestNode(b, "local")
	RegisterStage[T, T](worker, "relay", relayStage[T])
	send, recv, err := RemoteStage[T, T](local, worker.Addr(), "relay", nil)
	if err != nil {
		b.Fatal(err)
	}
	var got int
	sink := raft.NewLambda[T](1, 0, func(lk *raft.LambdaKernel) raft.Status {
		if _, err := raft.Pop[T](lk.In("0")); err != nil {
			return raft.Stop
		}
		got++
		return raft.Proceed
	})
	m := raft.NewMap()
	m.MustLink(kernels.NewGenerate(int64(b.N), gen), send)
	m.MustLink(recv, sink)
	b.ResetTimer()
	if _, err := m.Exe(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("received %d of %d", got, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
}

// TestRemoteStageFailureReachesCaller: a stage kernel that panics on
// element 1,000 of 20,000 fails the caller's Exe with an error that names
// the stage, where a clean EOF would hide the failure behind 999 results.
func TestRemoteStageFailureReachesCaller(t *testing.T) {
	worker := newTestNode(t, "worker")
	RegisterStage[int64, int64](worker, "fragile", func(map[string]string) (raft.Kernel, error) {
		return raft.NewLambdaIO[int64, int64](1, 1, func(lk *raft.LambdaKernel) raft.Status {
			v, err := raft.Pop[int64](lk.In("0"))
			if err != nil {
				return raft.Stop
			}
			if v == 999 {
				panic("element 1000")
			}
			if err := raft.Push(lk.Out("0"), v); err != nil {
				return raft.Stop
			}
			return raft.Proceed
		}), nil
	})
	send, recv, err := RemoteStage[int64, int64](newTestNode(t, "local"), worker.Addr(), "fragile", nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var got []int64
	m := raft.NewMap()
	m.MustLink(kernels.NewGenerate(n, func(i int64) int64 { return i }), send)
	m.MustLink(recv, kernels.NewWriteEach(&got))
	_, err = m.Exe()
	if err == nil || !strings.Contains(err.Error(), `stage "fragile"`) {
		t.Fatalf("Exe = %v after %d results, want an error naming stage \"fragile\"", err, len(got))
	}
	t.Logf("%d results, then: %v", len(got), err)
}
