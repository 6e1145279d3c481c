package raft

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

// Port windows (DESIGN §4.2): one named test per retire rule, the
// window-aware lengths, and the exactness of what is counted per commit.

// windowed returns a 1-in/1-out int64 kernel bound the way Exe binds one —
// its input port to in, its output port to out, both default rings.
func windowed(inCap, outCap int) (k *LambdaKernel, in, out *ringbuffer.Ring[int64]) {
	k = NewLambda[int64](1, 1, nil)
	in, out = ringbuffer.NewRing[int64](inCap), ringbuffer.NewRing[int64](outCap)
	k.In("0").bind(in, nil)
	k.Out("0").bind(out, nil)
	return k, in, out
}

func committed(r *ringbuffer.Ring[int64]) uint64 { return r.Telemetry().Pushes.Load() }
func released(r *ringbuffer.Ring[int64]) uint64  { return r.Telemetry().Pops.Load() }

// fill commits n elements 0..n-1 into r from outside the kernel.
func fill(t *testing.T, r *ringbuffer.Ring[int64], from, n int) {
	t.Helper()
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(from + i)
	}
	if err := r.PushN(vs, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWindowRetiresWhenFullOrEmpty is retire rule 1 through the port API:
// scalar Push and Pop touch the ring once per window, whose length is the
// default (core.MaxWindow), half the ring, or the link's batch size.
func TestWindowRetiresWhenFullOrEmpty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cap    int
		batch  func(*core.BatchControl)
		window int
	}{
		{"default", 1024, nil, core.MaxWindow},
		{"half-ring", 16, nil, 8},
		{"batcher-decision", 1024, func(b *core.BatchControl) { b.Set(4) }, 4},
		{"low-latency-pin", 1024, func(b *core.BatchControl) { b.Pin(1) }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, in, out := windowed(tc.cap, tc.cap)
			if tc.batch != nil {
				ls := &linkSlot{}
				tc.batch(&ls.batch)
				k.In("0").ls, k.Out("0").ls = ls, ls
			}
			for i := 0; i < 2*tc.window; i++ {
				if err := Push(k.Out("0"), int64(i)); err != nil {
					t.Fatal(err)
				}
				if want := uint64((i + 1) / tc.window * tc.window); committed(out) != want {
					t.Fatalf("after push %d: %d committed, want %d", i, committed(out), want)
				}
			}
			fill(t, in, 0, 2*tc.window)
			for i := 0; i < 2*tc.window; i++ {
				v, err := Pop[int64](k.In("0"))
				if err != nil || v != int64(i) {
					t.Fatalf("pop %d = %d, %v", i, v, err)
				}
				if want := uint64((i + 1) / tc.window * tc.window); released(in) != want {
					t.Fatalf("after pop %d: %d released, want %d", i, released(in), want)
				}
			}
		})
	}
}

// TestWindowRetiresBeforeBlocking is retire rule 2: before a port operation
// of the kernel sleeps — on any port, scalar or bulk — every window the
// kernel holds is retired, so a neighbour never waits for what a sleeping
// kernel is sitting on.
func TestWindowRetiresBeforeBlocking(t *testing.T) {
	blockers := map[string]func(k *LambdaKernel) error{
		"Pop":       func(k *LambdaKernel) error { _, err := Pop[int64](k.In("0")); return err },
		"PopN":      func(k *LambdaKernel) error { _, err := PopN(k.In("0"), make([]int64, 4)); return err },
		"PopView":   func(k *LambdaKernel) error { _, err := PopView[int64](k.In("0"), 4); return err },
		"PeekRange": func(k *LambdaKernel) error { _, err := PeekRange[int64](k.In("0"), 2); return err },
	}
	for name, block := range blockers {
		t.Run("input/"+name, func(t *testing.T) {
			k, in, out := windowed(16, 1024)
			fill(t, in, 0, 3)
			for i := 0; i < 3; i++ { // leaves a consumed read window of 3...
				if _, err := Pop[int64](k.In("0")); err != nil {
					t.Fatal(err)
				}
				_ = Push(k.Out("0"), int64(i)) // ...and an uncommitted write window of 3
			}
			if committed(out) != 0 {
				t.Fatalf("%d committed before the kernel blocked", committed(out))
			}
			done := make(chan error, 1)
			go func() { done <- block(k) }() // the kernel's goroutine from here on
			for in.ReaderStarvedFor() == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			if committed(out) != 3 || released(in) != 3 {
				t.Fatalf("asleep in %s with %d of 3 outputs committed and %d of 3 inputs released", name, committed(out), released(in))
			}
			in.Close()
			if err := <-done; !errors.Is(err, ErrClosed) {
				t.Fatalf("%s on a closed empty stream = %v", name, err)
			}
		})
	}
	t.Run("output/Push", func(t *testing.T) {
		k, in, out := windowed(16, 2)
		fill(t, in, 0, 4)
		fill(t, out, 0, 2) // full
		if _, err := Pop[int64](k.In("0")); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- Push(k.Out("0"), int64(9)) }()
		for out.WriterBlockedFor() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		if released(in) != 1 {
			t.Fatalf("asleep on a full output with %d of 1 consumed inputs released", released(in))
		}
		if _, _, err := out.Pop(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

// TestWindowNoDeadlockInMultiInputGraph runs the graph that deadlocks if
// rule 2 is broken: a source alternating between two small streams and a
// consumer that needs one element of each per step. Whichever stream the
// source blocks on, the other must already hold what it pushed.
func TestWindowNoDeadlockInMultiInputGraph(t *testing.T) {
	const n = 20_000
	var sent int64
	src := NewLambda[int64](0, 2, func(k *LambdaKernel) Status {
		if sent == n {
			return Stop
		}
		if Push(k.Out("0"), sent) != nil || Push(k.Out("1"), -sent) != nil {
			return Stop
		}
		sent++
		return Proceed
	})
	var pairs, bad int64
	zip := NewLambda[int64](2, 0, func(k *LambdaKernel) Status {
		a, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		b, err := Pop[int64](k.In("1"))
		if err != nil {
			return Stop
		}
		if a != pairs || b != -pairs {
			bad++
		}
		pairs++
		return Proceed
	})
	m := NewMap()
	m.MustLink(src, zip, From("0"), To("0"), Cap(4), MaxCap(4))
	m.MustLink(src, zip, From("1"), To("1"), Cap(4), MaxCap(4))
	if _, err := m.Exe(WithDeadlockDetection(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if pairs != n || bad != 0 {
		t.Fatalf("zipped %d pairs (%d out of order), want %d", pairs, bad, n)
	}
}

// TestWindowPushSigCommitsAtOnce is retire rule 3: a signal-carrying element
// commits with everything before it, and signals stay aligned with their
// elements across windows.
func TestWindowPushSigCommitsAtOnce(t *testing.T) {
	k, _, out := windowed(64, 64)
	in := k.In("0")
	in.bind(out, nil) // read back what the kernel pushes
	_ = Push(k.Out("0"), int64(0))
	_ = Push(k.Out("0"), int64(1))
	if err := PushSig(k.Out("0"), int64(2), SigUser); err != nil {
		t.Fatal(err)
	}
	if committed(out) != 3 {
		t.Fatalf("%d committed after PushSig, want all 3", committed(out))
	}
	a := Allocate[int64](k.Out("0"))
	a.Val, a.Sig = 3, SigEOF
	if err := a.Send(); err != nil || committed(out) != 4 {
		t.Fatalf("Alloc.Send with a signal: %v, %d committed", err, committed(out))
	}
	for i, want := range []Signal{SigNone, SigNone, SigUser, SigEOF} {
		v, s, err := PopSig[int64](in)
		if err != nil || v != int64(i) || s != want {
			t.Fatalf("PopSig %d = %d, %v, %v; want signal %v", i, v, s, err, want)
		}
	}
}

// TestWindowBulkOpsRetireFirst is retire rule 4: a bulk, peek or view
// operation on a windowed port lands behind everything the scalar path
// already accepted or handed out, so FIFO order holds across any mix.
func TestWindowBulkOpsRetireFirst(t *testing.T) {
	k := NewLambda[int64](1, 1, nil)
	r := ringbuffer.NewRing[int64](256)
	k.In("0").bind(r, nil)
	k.Out("0").bind(r, nil)
	in, out := k.In("0"), k.Out("0")

	next := int64(0)
	push := func() { _ = Push(out, next); next++ }
	push()
	push()
	if err := PushN(out, []int64{next, next + 1}); err != nil {
		t.Fatal(err)
	}
	next += 2
	push()
	if err := PushNSig(out, []int64{next}, []Signal{SigNone}); err != nil {
		t.Fatal(err)
	}
	next++
	push()
	wv, err := AcquireWriteView[int64](out, 2)
	if err != nil || wv.Len() != 2 {
		t.Fatalf("write view: %v (len %d)", err, wv.Len())
	}
	wv.SetAt(0, next, SigNone)
	wv.SetAt(1, next+1, SigNone)
	ReleaseWriteView[int64](out, 2)
	next += 2
	push()
	push()
	out.retireWindow()

	want := int64(0)
	expect := func(got int64) {
		t.Helper()
		if got != want {
			t.Fatalf("got %d, want %d: FIFO order broken across the mix", got, want)
		}
		want++
	}
	pop := func() {
		t.Helper()
		v, err := Pop[int64](in)
		if err != nil {
			t.Fatal(err)
		}
		expect(v)
	}
	pop()
	buf := make([]int64, 2)
	if n, err := PopN(in, buf); n != 2 || err != nil {
		t.Fatalf("PopN = %d, %v", n, err)
	}
	expect(buf[0])
	expect(buf[1])
	pop()
	if n, err := DrainTo(in, buf[:1]); n != 1 || err != nil {
		t.Fatalf("DrainTo = %d, %v", n, err)
	}
	expect(buf[0])
	pop()
	vs, err := PeekRange[int64](in, 2)
	if err != nil || len(vs) != 2 {
		t.Fatalf("PeekRange = %v, %v", vs, err)
	}
	if vs[0] != want {
		t.Fatalf("PeekRange sees %d, want %d", vs[0], want)
	}
	Recycle[int64](in, 1)
	want++
	pop()
	v, err := PopView[int64](in, 2)
	if err != nil || v.Len() != 2 {
		t.Fatalf("PopView: %v (len %d)", err, v.Len())
	}
	expect(v.At(0))
	expect(v.At(1))
	ReleaseView[int64](in, 2)
	if pv, err := Peek[int64](in, 0); err != nil || pv != want {
		t.Fatalf("Peek = %d, %v; want %d", pv, err, want)
	}
	pop()
	if want != next {
		t.Fatalf("consumed %d of %d", want, next)
	}
}

// TestWindowRetiresAtStepBoundaries is retire rule 5 where the actor drives
// it: a kernel that returns Stall or Stop never sits on uncommitted
// elements, and closing a port delivers what was pushed before EOF.
func TestWindowRetiresAtStepBoundaries(t *testing.T) {
	for _, end := range []Status{Stall, Stop} {
		k, _, out := windowed(64, 64)
		steps := 0
		k.fn = func(k *LambdaKernel) Status {
			_ = Push(k.Out("0"), int64(steps))
			if steps++; steps%5 == 0 {
				return end
			}
			return Proceed
		}
		a := new(kernelSlot).buildActor(new(actorEntry), k, 0, 0, nil, 0)
		for i := 1; i <= 50; i++ {
			if st := a.StepTimed(); st == end && committed(out) != uint64(i) {
				t.Fatalf("step %d returned %v with %d of %d elements committed", i, end, committed(out), i)
			}
		}
	}

	k, _, out := windowed(64, 64)
	in := k.In("0")
	in.bind(out, nil)
	_ = Push(k.Out("0"), int64(1))
	_ = Push(k.Out("0"), int64(2))
	k.CloseOutputs()
	for want := int64(1); want <= 2; want++ {
		if v, err := Pop[int64](in); err != nil || v != want {
			t.Fatalf("after CloseOutputs: pop = %d, %v; want %d", v, err, want)
		}
	}
	if !k.InputsDone() {
		t.Fatal("stream not done after its last element")
	}
	if _, err := Pop[int64](in); !errors.Is(err, ErrClosed) {
		t.Fatalf("pop past EOF = %v", err)
	}
}

// TestWindowProducerWaitingOffPortDelivers: a producer that stops inside Run
// on something that is not a port — a channel-fed source, the gateway's
// shape — is invisible to every retire rule, and still each element it
// pushed reaches the consumer at once: each push publishes the ring's
// tail, so a consumer arriving after the push finds the element, and one
// that went to sleep before it is woken by it. The test hands the source one element at a time
// and waits for the sink to report it, so every round trip depends on
// exactly one push being delivered with nothing behind it to force a
// commit; both orders of push and sleep occur over the run.
func TestWindowProducerWaitingOffPortDelivers(t *testing.T) {
	const rounds = 2000
	feed, seen := make(chan int64), make(chan int64)
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		for v := range feed { // waits here, inside Run, between pushes
			if err := Push(k.Out("0"), v); err != nil {
				return Stop
			}
		}
		return Stop
	})
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		seen <- v
		return Proceed
	})
	m := NewMap()
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := m.Exe(); done <- err }()
	start := time.Now()
	for i := int64(0); i < rounds; i++ {
		feed <- i
		select {
		case v := <-seen:
			if v != i {
				t.Fatalf("round %d delivered %d", i, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("element %d, pushed by a producer now waiting off-port, never reached the consumer", i)
		}
	}
	t.Logf("%v per round trip", time.Since(start)/rounds)
	close(feed)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWindowClosedUnderProducerStopsIt: a stream closed from the other end
// while the producer holds a write window (its consumer died, the run was
// aborted) turns the producer's pushes into ErrClosed from the next one on,
// as before windows, not a window's length later.
func TestWindowClosedUnderProducerStopsIt(t *testing.T) {
	k, _, out := windowed(64, 64)
	for i := int64(0); i < 3; i++ {
		if err := Push(k.Out("0"), i); err != nil {
			t.Fatal(err)
		}
	}
	out.Close() // not through k's port: the window is still open
	accepted := 0
	for i := int64(3); i < 64; i++ {
		if err := Push(k.Out("0"), i); err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatal(err)
			}
			break
		}
		accepted++
	}
	if accepted > 1 {
		t.Fatalf("%d pushes accepted after the stream was closed under the window, want at most the one that finds out", accepted)
	}
	// What was published before the producer found out stays deliverable,
	// and is counted.
	if n := uint64(3 + accepted); committed(out) != n || out.Len() != int(n) {
		t.Fatalf("%d counted, %d buffered; want the %d pushed before the close was seen", committed(out), out.Len(), n)
	}
}

// TestWindowLowLatencyAndSlowStagesCommitEveryElement is retire rule 6 end
// to end: on an AsLowLatency link (window 1), and out of a stage stepping
// slower than the hold bound (retired after every invocation), each element
// is its own commit, exactly as before windows existed — one occupancy
// sample per element says so. The fast default link beside them does
// amortise.
func TestWindowLowLatencyAndSlowStagesCommitEveryElement(t *testing.T) {
	for name, tc := range map[string]struct {
		link     []LinkOption
		work     time.Duration
		perElem  bool
		elements int64
	}{
		"low-latency-link": {[]LinkOption{AsLowLatency()}, 0, true, 20_000},
		"slow-stage":       {nil, 50 * time.Microsecond, true, 200},
		"fast-default":     {nil, 0, false, 20_000},
	} {
		t.Run(name, func(t *testing.T) {
			var sent int64
			src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
				if sent == tc.elements {
					return Stop
				}
				for t0 := time.Now(); time.Since(t0) < tc.work; {
				}
				if Push(k.Out("0"), sent) != nil {
					return Stop
				}
				sent++
				return Proceed
			})
			var got int64
			sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
				if _, err := Pop[int64](k.In("0")); err != nil {
					return Stop
				}
				got++
				return Proceed
			})
			m := NewMap()
			m.MustLink(src, sink, tc.link...)
			rep, err := m.Exe()
			if err != nil {
				t.Fatal(err)
			}
			l := rep.Links[0]
			var samples uint64
			for _, c := range l.OccHist {
				samples += c
			}
			if got != tc.elements || l.Pushes != uint64(tc.elements) {
				t.Fatalf("delivered %d, pushes %d, want %d", got, l.Pushes, tc.elements)
			}
			if tc.perElem && samples != l.Pushes {
				t.Fatalf("%d commits for %d elements, want one each", samples, l.Pushes)
			}
			if !tc.perElem && samples > l.Pushes/2 {
				t.Fatalf("%d commits for %d elements: the fast default link does not amortise", samples, l.Pushes)
			}
		})
	}
}

// TestWindowAwareLengths: Len never counts an element Pop already returned
// and always counts one Push accepted; InputsDone is true immediately after
// the last Pop of a closed stream; the drained check behind a rewrite's
// port migration sees the same.
func TestWindowAwareLengths(t *testing.T) {
	k, in, out := windowed(64, 64)
	fill(t, in, 0, 10)
	in.Close()
	for i := 0; i < 10; i++ {
		if got := k.In("0").Len(); got != 10-i {
			t.Fatalf("input Len = %d after %d pops, want %d", got, i, 10-i)
		}
		if k.InputsDone() {
			t.Fatalf("InputsDone with %d elements unread", 10-i)
		}
		if _, err := Pop[int64](k.In("0")); err != nil {
			t.Fatal(err)
		}
		_ = Push(k.Out("0"), int64(i))
		if got := k.Out("0").Len(); got != i+1 {
			t.Fatalf("output Len = %d after %d pushes", got, i+1)
		}
	}
	if k.In("0").Len() != 0 || !k.InputsDone() {
		t.Fatalf("after the last pop of a closed stream: Len %d, InputsDone %v", k.In("0").Len(), k.InputsDone())
	}
	if committed(out) != 0 || out.Len() != 10 {
		t.Fatalf("output ring: %d committed, Len %d; want 0 and 10", committed(out), out.Len())
	}

	// A sealed stream with a staged successor migrates exactly when the
	// last element has been popped, not one window later.
	k2, in2, _ := windowed(64, 64)
	fill(t, in2, 0, 3)
	succ := ringbuffer.NewRing[int64](8)
	fill(t, succ, 100, 1)
	nb := &pendingRebind{q: succ, applied: make(chan struct{})}
	k2.In("0").installPending(nb)
	in2.Close()
	for want := int64(0); want < 3; want++ {
		if v, err := Pop[int64](k2.In("0")); err != nil || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, err, want)
		}
		select {
		case <-nb.applied:
			t.Fatalf("migrated with element %d still to come", want+1)
		default:
		}
	}
	if v, err := Pop[int64](k2.In("0")); err != nil || v != 100 {
		t.Fatalf("first pop after the splice = %d, %v; want 100", v, err)
	}
	<-nb.applied
}

// TestReadyAdoptsStagedMergeSlot: a merge slot that a rewrite linked is
// adopted only by one of the merge's steps, and its stream cannot wake the
// merge before that, so a staged binding on an unlinked slot makes a merge
// that stalled on its empty inputs ready again. Without it a work-stealing
// scale-up could wait out drainTimeout for the adoption, the merge parked on
// an input starved by a split waiting on the new replica.
func TestReadyAdoptsStagedMergeSlot(t *testing.T) {
	k := NewMerge[int64](2)
	kb := k.kernelBase()
	kb.ins[0].bind(ringbuffer.NewRing[int64](4), &linkSlot{})
	kb.outs[0].bind(ringbuffer.NewRing[int64](4), &linkSlot{})
	ready := (&actorEntry{k: k, kb: kb, wait: k.(waiter).waits()}).Ready
	if st := k.Run(); st != Stall {
		t.Fatalf("merge over an empty input returned %v, want stall", st)
	}
	if ready() {
		t.Fatal("ready with its only linked input empty")
	}
	staged := ringbuffer.NewRing[int64](4)
	kb.ins[1].installPending(&pendingRebind{q: staged, applied: make(chan struct{})})
	if !ready() {
		t.Fatal("not ready with a staged slot binding to adopt")
	}
}

// TestWindowReadinessAndParkedWake: the work-stealing readiness predicate
// reads an open window as progress possible, and a parked consumer is woken
// by the commit.
func TestWindowReadinessAndParkedWake(t *testing.T) {
	k, in, out := windowed(8, 4)
	ready := (&actorEntry{kb: k.kernelBase()}).Ready
	if ready() {
		t.Fatal("ready with an empty input")
	}
	fill(t, in, 0, 3)
	if !ready() {
		t.Fatal("not ready with input buffered")
	}
	if _, err := Pop[int64](k.In("0")); err != nil { // opens a window over all 3
		t.Fatal(err)
	}
	// The ring is as long as before (nothing released) but so it was when
	// it was empty and the window answers first; drain it and readiness
	// must follow the window, not the ring.
	for i := 0; i < 2; i++ {
		if !ready() {
			t.Fatalf("not ready with %d elements left in the read window", 2-i)
		}
		_, _ = Pop[int64](k.In("0"))
	}
	if ready() {
		t.Fatal("ready after the read window emptied")
	}
	fill(t, in, 3, 1)
	fill(t, out, 0, 2)
	_ = Push(k.Out("0"), int64(7)) // window over the last 2 slots
	if !ready() {
		t.Fatal("not ready with a free slot in the write window")
	}
	_ = Push(k.Out("0"), int64(8)) // fills it: committed, ring full
	if ready() {
		t.Fatal("ready with a full output and no window")
	}

	// Parked consumer: its readiness check arms the ring, and the wake fires
	// on the producer's first publish after — a write into a window — once.
	var wakes atomic.Int64
	k2, _, out2 := windowed(8, 64)
	out2.SetWakeHook(ringbuffer.WakeFunc(func(w ringbuffer.Wake) {
		if w == ringbuffer.WakeNotEmpty {
			wakes.Add(1)
		}
	}))
	if !out2.Blocked(false) {
		t.Fatal("consumer of an empty stream not blocked")
	}
	_ = Push(k2.Out("0"), int64(1))
	_ = Push(k2.Out("0"), int64(2))
	k2.retireWindows()
	if wakes.Load() != 1 {
		t.Fatalf("wakes = %d after two pushes and a commit, want 1", wakes.Load())
	}
}

// TestWindowMarkersWaitForTheirElements: a marker is deposited on the lane
// when the elements it was stamped for are committed — never ahead of them.
func TestWindowMarkersWaitForTheirElements(t *testing.T) {
	k, _, out := windowed(64, 64)
	p := k.Out("0")
	dom := trace.NewMarkerDomain(2)
	k.marks = &markerRig{dom: dom}
	p.lane = &trace.MarkerLane{}
	p.lane.Init("test")
	p.stampEvery, p.stampLeft = 2, 2
	for i := 0; i < 5; i++ {
		_ = Push(p, int64(i))
		if !p.lane.Empty() || dom.Stamped() != 0 {
			t.Fatalf("marker stamped or deposited after push %d with %d committed", i, committed(out))
		}
	}
	k.retireWindows()
	if committed(out) != 5 || p.lane.Empty() || dom.Stamped() != 1 {
		t.Fatalf("after the retire: %d committed, lane empty %v, %d stamped", committed(out), p.lane.Empty(), dom.Stamped())
	}
}

// TestCountsExactUnderWindows: what is counted per commit instead of per
// element is still exact. Every link reports Pushes == Pops == n, every
// kernel's Runs is its invocation count, markers stamped are markers
// retired, and occupancy has one sample per synchronisation.
func TestCountsExactUnderWindows(t *testing.T) {
	const n = 100_000
	for name, opts := range map[string][]Option{
		"goroutine": nil,
		"worksteal": {WithWorkStealing(2)},
	} {
		t.Run(name, func(t *testing.T) {
			var srcRuns, relayRuns, sinkRuns atomic.Int64
			var sent int64
			src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
				srcRuns.Add(1)
				if sent == n {
					return Stop
				}
				if Push(k.Out("0"), sent) != nil {
					return Stop
				}
				sent++
				return Proceed
			})
			src.SetName("src")
			relay := NewLambda[int64](1, 1, func(k *LambdaKernel) Status {
				relayRuns.Add(1)
				v, err := Pop[int64](k.In("0"))
				if err != nil || Push(k.Out("0"), v) != nil {
					return Stop
				}
				return Proceed
			})
			relay.SetName("relay")
			var sum int64
			sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
				sinkRuns.Add(1)
				v, err := Pop[int64](k.In("0"))
				if err != nil {
					return Stop
				}
				sum += v
				return Proceed
			})
			sink.SetName("sink")
			m := NewMap()
			m.MustLink(src, relay)
			m.MustLink(relay, sink)
			ex, err := m.ExeAsync(append([]Option{WithLatencyMarkers(256)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ex.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if sum != n*(n-1)/2 {
				t.Fatalf("sum = %d", sum)
			}
			for _, l := range rep.Links {
				var samples uint64
				for _, c := range l.OccHist {
					samples += c
				}
				if l.Pushes != n || l.Pops != n {
					t.Errorf("link %s: pushes %d pops %d, want %d each", l.Name, l.Pushes, l.Pops, n)
				}
				if samples == 0 || samples > l.Pushes {
					t.Errorf("link %s: %d occupancy samples for %d pushes", l.Name, samples, l.Pushes)
				}
				if l.Views != 0 || l.ViewHoldNs != 0 {
					t.Errorf("link %s: windows counted as views (%d, %d ns)", l.Name, l.Views, l.ViewHoldNs)
				}
			}
			wantRuns := map[string]int64{"src": srcRuns.Load(), "relay": relayRuns.Load(), "sink": sinkRuns.Load()}
			for _, k := range rep.Kernels {
				if want, ok := wantRuns[k.Name]; ok && k.Runs != uint64(want) {
					t.Errorf("kernel %s: Runs = %d, invoked %d times", k.Name, k.Runs, want)
				}
			}
			dom := ex.cfg.markers.dom
			if dom.Stamped() == 0 || dom.Stamped() != dom.Retired() || rep.Latency.Retired != dom.Retired() {
				t.Errorf("markers: %d stamped, %d retired, %d reported", dom.Stamped(), dom.Retired(), rep.Latency.Retired)
			}
		})
	}
}
