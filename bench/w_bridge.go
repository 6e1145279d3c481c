package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"raftlib/internal/oar"
	"raftlib/internal/ringbuffer"
	"raftlib/kernels"
	"raftlib/raft"
)

// elem4k is the bridge workload's element: 4 KiB and pointer-free, so the
// sender takes the raw-encoding path straight out of ring storage.
type elem4k struct{ P [512]int64 }

const elemBytes = 4096

// bridgeElem makes element i from the seeded template: word 0 is the index,
// word 1 mixes it into the payload, the rest is the template.
func bridgeElem(tmpl *elem4k, i int64) elem4k {
	v := *tmpl
	v.P[0] = i
	v.P[1] ^= i * 0x1E3779B97F4A7C15
	return v
}

func xorFold(v *elem4k) (x int64) {
	for _, w := range v.P {
		x ^= w
	}
	return x
}

func bridgeTemplate(seed uint64) *elem4k {
	rng := rand.New(rand.NewSource(int64(seed) + 77))
	var t elem4k
	for i := range t.P {
		t.P[i] = rng.Int63()
	}
	return &t
}

// runBridge is the bridge workload: generate -> oar.Sender => loopback TCP
// => oar.Receiver -> sink, 4 KiB elements over Cap(256) streams, default
// bridge options. Wire encode/decode, seq/ack and socket writes dominate,
// and the sender reads the ring through borrow/release views, not pop.
func runBridge(e *env, n int64) (outcome, error) {
	var o outcome
	run, endRun := e.tr.begin("run", 0)
	defer endRun()
	_, endBuild := e.tr.begin("build", run)
	buildStart := time.Now()
	node, err := oar.NewNode("bench", "127.0.0.1:0")
	if err != nil {
		return o, err
	}
	defer node.Close()
	send, recv, err := oar.Bridge[elem4k](node, "bench")
	if err != nil {
		return o, err
	}
	tmpl := bridgeTemplate(e.seed)
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(n, func(i int64) elem4k { return bridgeElem(tmpl, i) }), send, raft.Cap(256), raft.MaxCap(256)); err != nil {
		return o, err
	}
	ksink := e.tr.kernel("sink")
	var count, fold int64
	sink := raft.NewLambdaIO[elem4k, elem4k](1, 0, func(k *raft.LambdaKernel) raft.Status {
		sampled := ksink.sample()
		v, err := raft.Pop[elem4k](k.In("0"))
		if sampled {
			ksink.done(ksink.port(false, ksink.runStart))
		}
		if err != nil {
			return raft.Stop
		}
		count++
		fold ^= xorFold(&v)
		return raft.Proceed
	})
	sink.SetName("sink")
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink, raft.Cap(256), raft.MaxCap(256)); err != nil {
		return o, err
	}
	o.build, o.kernels = time.Since(buildStart), 4
	endBuild()

	exe, endExe := e.tr.begin("exe", run)
	o.exeStart = time.Now()
	var wg sync.WaitGroup
	var repP, repC *raft.Report
	var errP, errC error
	wg.Add(2)
	go func() { defer wg.Done(); repP, errP = producer.Exe() }()
	go func() { defer wg.Done(); repC, errC = consumer.Exe() }()
	wg.Wait()
	o.exe = time.Since(o.exeStart)
	endExe()
	if errP != nil || errC != nil {
		return o, fmt.Errorf("bridge: producer: %v, consumer: %v", errP, errC)
	}
	_, endVerify := e.tr.begin("verify", run)
	ksink.flush(exe, &o.ports)
	o.lanes = 1
	o.reports = []*raft.Report{repP, repC}
	var want int64
	for i := int64(0); i < n; i++ {
		v := bridgeElem(tmpl, i)
		want ^= xorFold(&v)
	}
	o.items, o.bytes, o.attempted = count, count*elemBytes, n
	o.failed = max(n-count, count-n)
	if o.failed == 0 && fold != want {
		o.failed = 1
	}
	endVerify()
	return o, nil
}

// layerBridge adds the ceiling (plain loopback TCP moving the same number
// of bytes), the view probe, and how busy the two bridge kernels were.
func layerBridge(e *env, n int64, traced outcome, m *metrics) error {
	total := n * elemBytes
	raw, err := rawTCP(total)
	if err != nil {
		return err
	}
	m.set("oar.raw_tcp_bytes_per_s", raw)
	m.set("oar.wire_efficiency", float64(traced.bytes)/traced.exe.Seconds()/raw)
	var replayed, reconnects uint64
	for _, r := range traced.reports {
		for _, k := range r.Kernels {
			share := float64(k.BusyNanos) / float64(r.Elapsed.Nanoseconds())
			switch {
			case strings.HasPrefix(k.Name, "tcp-send["):
				m.set("oar.sender_busy_share", share)
			case strings.HasPrefix(k.Name, "tcp-recv["):
				m.set("oar.receiver_busy_share", share)
			}
		}
		for _, b := range r.Bridges {
			replayed += b.Replayed
			reconnects += b.Reconnects
		}
	}
	m.set("oar.replayed", float64(replayed))
	m.set("oar.reconnects", float64(reconnects))
	m.set("ringbuffer.view64_ns_per_item", probeViews(int(2_000_000/e.scale)))
	return nil
}

// rawTCP moves total bytes over a loopback connection with 64 KiB writes
// and io.Copy on the far side: what the socket alone can carry.
func rawTCP(total int64) (bytesPerSec float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	got := make(chan int64, 1) // one result from one reader
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- -1
			return
		}
		defer conn.Close()
		n, _ := io.Copy(io.Discard, conn) // a short count fails the check below
		got <- n
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 64<<10)
	t0 := time.Now()
	for left := total; left > 0; {
		chunk := min(left, int64(len(buf)))
		if _, err := conn.Write(buf[:chunk]); err != nil {
			conn.Close()
			return 0, err
		}
		left -= chunk
	}
	if err := conn.Close(); err != nil {
		return 0, err
	}
	if n := <-got; n != total {
		return 0, fmt.Errorf("raw tcp: moved %d of %d bytes", n, total)
	}
	return float64(total) / time.Since(t0).Seconds(), nil
}

// probeViews moves items int64 through a ring with 64-element write views
// on one goroutine and 64-element read views on another.
func probeViews(items int) (nsPerItem float64) {
	r := ringbuffer.NewRing[int64](1024)
	done := make(chan int64)
	go func() {
		var sum int64
		for {
			v, err := r.AcquireView(64)
			if err != nil {
				break
			}
			for i := 0; i < v.Len(); i++ {
				sum += v.At(i)
			}
			r.ReleaseView(v.Len())
		}
		done <- sum
	}()
	t0 := time.Now()
	for sent := 0; sent < items; {
		w, err := r.AcquireWriteView(min(64, items-sent))
		if err != nil {
			break
		}
		for i := 0; i < w.Len(); i++ {
			w.SetAt(i, int64(sent+i), ringbuffer.SigNone)
		}
		r.ReleaseWriteView(w.Len())
		sent += w.Len()
	}
	r.Close()
	probeSink += float64(<-done)
	return float64(time.Since(t0).Nanoseconds()) / float64(items)
}
