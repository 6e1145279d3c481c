package raft

import (
	"errors"
	"sync"
	"testing"
	"time"

	"raftlib/internal/ringbuffer"
)

// The port-window protocol against a model. A script mixes the scalar
// operations that ride windows with everything that has to retire one first
// — bulk, peek and view operations, Stall-style retires, a monitor's Resize
// landing mid-window (deferred), a best-effort link (never windowed), Close,
// and a rewrite splice that moves both ends to a fresh stream. The oracle:
// elements arrive in FIFO order with their signals aligned, and whenever no
// window is out the counters balance — pushes = pops + resident (+ evicted,
// on a best-effort link). A second view acquired while a window is out
// would panic in the ring; the script reaching its end says none was.

// sigFor is the signal element v travels with, so a consumer can check
// alignment from the value alone.
func sigFor(v int64) Signal {
	if v%7 == 3 {
		return SigUser
	}
	return SigNone
}

type modelElem struct {
	v int64
	s Signal
}

// windowRig is one producer end and one consumer end over a chain of
// streams (one, until a splice adds the next).
type windowRig struct {
	t          *testing.T
	prod, cons *LambdaKernel
	rings      []*ringbuffer.Ring[int64]
	staged     *pendingRebind // the last splice's consumer-side binding
	bestEffort bool
	// shed counts elements a best-effort stream refused outright: the
	// streams' Telemetry.Shed, never in Pushes.
	shed uint64
	// notEmpty and notFull receive the streams' wake-hook calls, for a
	// kernel that parks the way a cooperative scheduler parks it.
	notEmpty, notFull chan struct{}
}

func newWindowRig(t *testing.T, capacity int, bestEffort, lowLatency bool) *windowRig {
	g := &windowRig{t: t, bestEffort: bestEffort, notEmpty: make(chan struct{}, 1), notFull: make(chan struct{}, 1)}
	g.prod = NewLambda[int64](0, 1, nil)
	g.cons = NewLambda[int64](1, 0, nil)
	ls := &linkSlot{}
	if lowLatency {
		ls.batch.Pin(1)
	}
	r := g.addRing(capacity)
	g.prod.Out("0").bind(r, ls)
	g.cons.In("0").bind(r, ls)
	return g
}

func (g *windowRig) addRing(capacity int) *ringbuffer.Ring[int64] {
	r := ringbuffer.NewRing[int64](capacity)
	r.SetBestEffort(g.bestEffort)
	r.SetWakeHook(ringbuffer.WakeFunc(func(w ringbuffer.Wake) {
		if w != ringbuffer.WakeNotFull {
			signal(g.notEmpty)
		}
		if w != ringbuffer.WakeNotEmpty {
			signal(g.notFull)
		}
	}))
	g.rings = append(g.rings, r)
	return r
}

func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// park is a kernel parking the way the work-stealing scheduler parks one:
// it retires its windows and asks its stream whether it would block, which
// arms the stream; if so, it waits for the wake hook. An armed end that is
// never woken is a lost wakeup.
func (g *windowRig) park(k *LambdaKernel, p *Port, producer bool, wake chan struct{}) {
	k.retireWindows()
	if !p.q.Blocked(producer) {
		return
	}
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		g.t.Errorf("parked end (producer %v) never woken", producer)
	}
}

func (g *windowRig) out() *Port { return g.prod.Out("0") }
func (g *windowRig) in() *Port  { return g.cons.In("0") }

// tail is the stream the producer currently writes to.
func (g *windowRig) tail() *ringbuffer.Ring[int64] { return g.rings[len(g.rings)-1] }

// splice is what a rewrite transaction does to a continuing producer and
// consumer: with the producer at a step boundary (windows retired), stage
// the new stream on the consumer, rebind the producer, seal the old stream.
// Like the rewriter, whose commit waits for the consumer to have moved, it
// does nothing while the previous splice is still being drained towards.
func (g *windowRig) splice(capacity int) {
	if g.staged != nil {
		select {
		case <-g.staged.applied:
		default:
			return
		}
	}
	g.prod.retireWindows()
	old := g.tail()
	r := g.addRing(capacity)
	g.staged = &pendingRebind{q: r, ls: g.in().ls, applied: make(chan struct{})}
	g.in().installPending(g.staged)
	g.out().bind(r, g.out().ls)
	old.Close()
}

// balanced checks the conservation law over every stream of the chain. It
// may be called only when neither end holds a window.
func (g *windowRig) balanced(where string) {
	g.t.Helper()
	var shed uint64
	for i, r := range g.rings {
		tel := r.Telemetry().Snapshot()
		if r.WindowPos(true) != 0 || r.WindowPos(false) != 0 {
			g.t.Fatalf("%s: stream %d still has a window out", where, i)
		}
		if got, want := tel.Pushes, tel.Pops+tel.Evicted+uint64(r.Len()); got != want {
			g.t.Fatalf("%s: stream %d: pushes %d != pops %d + evicted %d + resident %d",
				where, i, tel.Pushes, tel.Pops, tel.Evicted, r.Len())
		}
		shed += tel.Shed
	}
	if shed != g.shed {
		g.t.Fatalf("%s: streams shed %d, the model %d", where, shed, g.shed)
	}
}

// FuzzPortWindow runs the script on one goroutine against a plain-slice
// model, so every observation is checked at the step it is made.
func FuzzPortWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 2, 2, 10, 2, 2, 2, 9, 4, 0, 5, 2, 13})
	f.Add([]byte{16, 0, 0, 1, 0, 4, 3, 7, 2, 2, 8, 1, 0, 0, 11, 3, 2, 10, 12, 0, 0, 2, 2, 2, 2})
	f.Add([]byte{32, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 6, 2, 14})
	f.Add([]byte{64, 0, 0, 12, 0, 0, 2, 12, 0, 2, 2, 2, 2, 2, 0, 13})
	f.Add([]byte{3, 0, 1, 0, 1, 9, 2, 5, 1, 0, 0, 12, 8, 2, 0, 0, 12, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 || len(script) > 512 {
			t.Skip()
		}
		mode := script[0]
		capacity := []int{4, 8, 16, 64}[mode&3]
		g := newWindowRig(t, capacity, mode&16 != 0, mode&32 != 0)
		var model []modelElem
		next := int64(0)
		closed := false

		// accept records that the stream took v. On a best-effort link a
		// full stream makes room by evicting its oldest signal-free
		// element, and sheds v itself when the head is pinned by a signal.
		accept := func(v int64, s Signal) {
			if g.bestEffort && len(model) == g.tail().Cap() && len(g.rings) == 1 {
				if model[0].s == SigNone {
					model = model[1:]
				} else if s == SigNone {
					g.shed++
					return
				}
			}
			model = append(model, modelElem{v, s})
		}
		room := func(k int) bool { return g.tail().Len()+k <= g.tail().Cap() }
		expect := func(v int64, s Signal, checkSig bool) {
			t.Helper()
			if len(model) == 0 {
				t.Fatalf("got %d from a stream the model has empty", v)
			}
			if model[0].v != v || (checkSig && model[0].s != s) {
				t.Fatalf("got (%d, %v), model head is (%d, %v)", v, s, model[0].v, model[0].s)
			}
			model = model[1:]
		}

		for pc := 1; pc < len(script); pc++ {
			op, arg := script[pc]%15, 1+int(script[pc]>>4)
			if closed && op != 2 && op != 3 && op != 5 && op != 6 {
				continue // only the consumer has anything left to do
			}
			switch op {
			case 0, 1: // Push / PushSig
				v, s := next, SigNone
				if op == 1 {
					s = SigUser
				}
				if g.bestEffort && s != SigNone && !room(1) {
					continue // a signal into a full best-effort stream blocks
				}
				if !g.bestEffort && !room(1) {
					ok, err := TryPush(g.out(), v)
					if err != nil {
						t.Fatalf("TryPush: %v", err)
					}
					if ok {
						accept(v, SigNone)
						next++
					}
					continue
				}
				if err := PushSig(g.out(), v, s); err != nil {
					t.Fatalf("PushSig: %v", err)
				}
				accept(v, s)
				next++
			case 2: // PopSig, or TryPop on an empty stream
				if len(model) == 0 {
					_, ok, err := TryPop[int64](g.in())
					if ok || (err != nil) != closed {
						t.Fatalf("TryPop on an empty stream (closed %v) = ok %v, err %v", closed, ok, err)
					}
					continue
				}
				v, s, err := PopSig[int64](g.in())
				if err != nil {
					t.Fatalf("PopSig: %v", err)
				}
				expect(v, s, true)
			case 3: // TryPop
				v, ok, err := TryPop[int64](g.in())
				if ok != (len(model) > 0) {
					t.Fatalf("TryPop ok=%v with %d elements in the model (err %v)", ok, len(model), err)
				}
				if ok {
					expect(v, 0, false)
				}
			case 4: // PushN
				// A shrink waiting for this end's own window would land
				// when PushN retires it, and the room would be gone.
				if g.bestEffort || !room(arg) || g.tail().ResizePending() {
					continue
				}
				vs, ss := make([]int64, arg), make([]Signal, arg)
				for i := range vs {
					vs[i], ss[i] = next+int64(i), sigFor(next+int64(i))
				}
				if err := PushNSig(g.out(), vs, ss); err != nil {
					t.Fatalf("PushN: %v", err)
				}
				for i := range vs {
					accept(vs[i], ss[i])
				}
				next += int64(arg)
			case 5, 6: // PopN / DrainTo
				if op == 5 && len(model) == 0 {
					continue
				}
				vs, ss := make([]int64, arg), make([]Signal, arg)
				var n int
				var err error
				if op == 5 {
					n, err = PopNSig(g.in(), vs, ss)
				} else {
					n, err = DrainTo(g.in(), vs)
					ss = nil
				}
				if n == 0 && len(model) > 0 || (err != nil && !(closed && len(model) == 0)) {
					t.Fatalf("bulk pop = %d, %v with %d in the model", n, err, len(model))
				}
				for i := 0; i < n; i++ {
					if ss != nil {
						expect(vs[i], ss[i], true)
					} else {
						expect(vs[i], 0, false)
					}
				}
			case 7: // PeekRange + Recycle
				if arg > len(model) || arg > g.in().q.Cap() || g.bestEffort {
					continue
				}
				vs, ss, err := PeekRangeSig[int64](g.in(), arg)
				// A sealed stream hands out what it has left with ErrClosed;
				// the rest of the window is on the spliced-in successor.
				if sealed := len(g.rings) > 1 && errors.Is(err, ErrClosed); (err != nil || len(vs) != arg) && !sealed {
					t.Fatalf("PeekRange(%d) = %d elements, %v", arg, len(vs), err)
				}
				keep := len(vs) / 2
				for i := 0; i < keep; i++ {
					s := SigNone
					if ss != nil {
						s = ss[i]
					}
					expect(vs[i], s, true)
				}
				Recycle[int64](g.in(), keep)
			case 8: // PopView + ReleaseView
				if len(model) == 0 {
					continue
				}
				v, err := PopView[int64](g.in(), arg)
				if err != nil || v.Len() == 0 {
					t.Fatalf("PopView = len %d, %v", v.Len(), err)
				}
				keep := (v.Len() + 1) / 2
				for i := 0; i < keep; i++ {
					expect(v.At(i), v.SigAt(i), true)
				}
				ReleaseView[int64](g.in(), keep)
			case 9: // AcquireWriteView + ReleaseWriteView
				if g.bestEffort {
					continue
				}
				wv, err := TryAcquireWriteView[int64](g.out(), arg)
				if err != nil {
					t.Fatalf("TryAcquireWriteView: %v", err)
				}
				if wv.Len() == 0 {
					continue
				}
				keep := (wv.Len() + 1) / 2
				for i := 0; i < keep; i++ {
					wv.SetAt(i, next, sigFor(next))
					accept(next, sigFor(next))
					next++
				}
				ReleaseWriteView[int64](g.out(), keep)
			case 10: // both kernels reach a step boundary that retires
				g.prod.retireWindows()
				g.cons.retireWindows()
				g.balanced("retire")
				if got := g.in().Len(); len(g.rings) == 1 && got != len(model) {
					t.Fatalf("Len = %d, model holds %d", got, len(model))
				}
			case 11: // the monitor resizes, window or no window
				target := 2 * arg
				if err := g.tail().Resize(target); err != nil && !errors.Is(err, ringbuffer.ErrTooSmall) {
					t.Fatalf("Resize(%d): %v", target, err)
				}
				if g.tail().ViewHeldFor() != 0 {
					t.Fatal("a window reports a view hold time to the monitor")
				}
			case 12: // TryPush
				if g.bestEffort {
					continue
				}
				ok, err := TryPush(g.out(), next)
				if err != nil {
					t.Fatalf("TryPush: %v", err)
				}
				if ok {
					accept(next, SigNone)
					next++
				}
			case 13: // the producer finishes
				g.prod.CloseOutputs()
				closed = true
			case 14: // a rewrite splices a fresh stream in
				if g.bestEffort || len(g.rings) >= 4 {
					continue
				}
				g.splice([]int{4, 8, 16, 64}[arg&3])
			}
			// What the kernel is told about its own ports never lies.
			if len(g.rings) == 1 && !g.bestEffort {
				if got := g.in().Len(); got != len(model) {
					t.Fatalf("step %d (op %d): input Len = %d, model holds %d", pc, op, got, len(model))
				}
			}
		}

		// Drain: everything accepted comes out, in order, and then EOF.
		if !closed {
			g.prod.CloseOutputs()
		}
		for len(model) > 0 {
			v, s, err := PopSig[int64](g.in())
			if err != nil {
				t.Fatalf("drain: %v with %d still in the model", err, len(model))
			}
			expect(v, s, true)
		}
		if _, err := Pop[int64](g.in()); !errors.Is(err, ErrClosed) {
			t.Fatalf("pop past the last element = %v", err)
		}
		if !g.cons.InputsDone() {
			t.Fatal("InputsDone false on a drained closed stream")
		}
		g.balanced("end")
	})
}

// FuzzPortWindowConcurrent runs the same protocol on three goroutines: the
// producing kernel, the consuming kernel, and a third party that resizes
// streams under open windows (the handover to a new store), probes
// lengths, and splices fresh streams in with the producer paused at a step
// boundary. Either kernel may park as a cooperative scheduler parks it
// (op 11) and must be woken by the other's next publish or release, by a
// grow, or by the close. The consumer checks order and signal alignment
// from the values themselves; the counters are balanced once both ends
// have finished.
func FuzzPortWindowConcurrent(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 0, 9, 0, 10, 0, 0, 0}, []byte{2, 2, 5, 2, 8, 2, 7, 2, 6, 2}, []byte{11, 14, 11, 27})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{2, 2, 2, 2, 2, 3}, []byte{14, 14})
	f.Add([]byte{34, 0, 1, 0, 4, 0, 12, 0}, []byte{3, 3, 2, 6, 10, 2}, []byte{11, 43})
	f.Add([]byte{3, 4, 4, 9, 9, 0, 0, 0, 10}, []byte{5, 5, 8, 8, 7, 7, 2, 10}, []byte{75, 14, 11})
	f.Add([]byte{0, 0, 0, 11, 0, 11, 4, 11}, []byte{11, 2, 11, 3, 11, 8}, []byte{11, 27, 14})
	f.Fuzz(func(t *testing.T, pscript, cscript, mscript []byte) {
		if len(pscript) < 2 || len(pscript) > 128 || len(cscript) == 0 || len(cscript) > 128 || len(mscript) > 32 {
			t.Skip()
		}
		const rounds = 40 // each script is replayed this many times
		mode := pscript[0]
		g := newWindowRig(t, []int{4, 8, 16, 64}[mode&3], false, mode&32 != 0)

		// pause is the gate: the third party takes it to hold the producer
		// at a step boundary, the producer takes it around each step.
		var pause sync.Mutex
		var wg sync.WaitGroup
		total := make(chan int64, 1)

		wg.Add(1)
		go func() { // the producing kernel
			defer wg.Done()
			next := int64(0)
			for round := 0; round < rounds; round++ {
				for _, b := range pscript[1:] {
					pause.Lock()
					op, arg := b%15, 1+int(b>>4)
					switch op {
					case 4:
						vs, ss := make([]int64, arg), make([]Signal, arg)
						for i := range vs {
							vs[i], ss[i] = next+int64(i), sigFor(next+int64(i))
						}
						if err := PushNSig(g.out(), vs, ss); err != nil {
							t.Errorf("PushN: %v", err)
						}
						next += int64(arg)
					case 9:
						wv, err := AcquireWriteView[int64](g.out(), arg)
						if err != nil {
							t.Errorf("AcquireWriteView: %v", err)
							break
						}
						for i := 0; i < wv.Len(); i++ {
							wv.SetAt(i, next, sigFor(next))
							next++
						}
						ReleaseWriteView[int64](g.out(), wv.Len())
					case 10:
						g.prod.retireWindows()
					case 11:
						g.park(g.prod, g.out(), true, g.notFull)
					case 12:
						if sigFor(next) != SigNone { // TryPush carries no signal
							break
						}
						if ok, err := TryPush(g.out(), next); err != nil {
							t.Errorf("TryPush: %v", err)
						} else if ok {
							next++
						}
					default:
						if err := PushSig(g.out(), next, sigFor(next)); err != nil {
							t.Errorf("PushSig: %v", err)
						}
						next++
					}
					pause.Unlock()
				}
			}
			pause.Lock()
			g.prod.CloseOutputs()
			pause.Unlock()
			total <- next
		}()

		var got int64
		wg.Add(1)
		go func() { // the consuming kernel
			defer wg.Done()
			check := func(v int64, s Signal, checkSig bool) {
				if v != got || (checkSig && s != sigFor(v)) {
					t.Errorf("got (%d, %v), want (%d, %v)", v, s, got, sigFor(got))
				}
				got++
			}
			for {
				// One blocking pop closes every pass over the script, so a
				// script made only of retires and TryPops still drains.
				for _, b := range append(cscript[:len(cscript):len(cscript)], 2) {
					op, arg := b%15, 1+int(b>>4)
					var err error
					switch op {
					case 3:
						var v int64
						var ok bool
						if v, ok, err = TryPop[int64](g.in()); ok {
							check(v, 0, false)
						}
					case 5:
						vs, ss := make([]int64, arg), make([]Signal, arg)
						var n int
						n, err = PopNSig(g.in(), vs, ss)
						for i := 0; i < n; i++ {
							check(vs[i], ss[i], true)
						}
					case 6:
						vs := make([]int64, arg)
						var n int
						n, err = DrainTo(g.in(), vs)
						for i := 0; i < n; i++ {
							check(vs[i], 0, false)
						}
					case 7:
						var vs []int64
						var ss []Signal
						vs, ss, err = PeekRangeSig[int64](g.in(), min(arg, 2))
						for i := range vs {
							s := SigNone
							if ss != nil {
								s = ss[i]
							}
							check(vs[i], s, true)
						}
						Recycle[int64](g.in(), len(vs))
						if len(vs) > 0 {
							err = nil // a remainder before a seal or EOF; the next operation finds out which
						}
					case 8:
						var v View[int64]
						v, err = PopView[int64](g.in(), arg)
						for i := 0; i < v.Len(); i++ {
							check(v.At(i), v.SigAt(i), true)
						}
						if v.Len() > 0 {
							ReleaseView[int64](g.in(), v.Len())
						}
					case 10:
						g.cons.retireWindows()
					case 11:
						g.park(g.cons, g.in(), false, g.notEmpty)
					default:
						var v int64
						var s Signal
						if v, s, err = PopSig[int64](g.in()); err == nil {
							check(v, s, true)
						}
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("consumer op %d: %v", op, err)
						return
					}
				}
			}
		}()

		stop := make(chan struct{})
		var third sync.WaitGroup
		third.Add(1)
		go func() { // monitor and rewriter
			defer third.Done()
			for round := 0; ; round++ {
				for _, b := range mscript {
					select {
					case <-stop:
						return
					default:
					}
					switch arg := 1 + int(b>>4); b % 15 {
					case 14:
						pause.Lock()
						if len(g.rings) < 6 && !g.tail().Closed() {
							g.splice([]int{4, 8, 16, 64}[arg&3])
						}
						pause.Unlock()
					default:
						pause.Lock() // only to read g.rings; the ring calls below race the kernels on purpose
						r := g.tail()
						pause.Unlock()
						if err := r.Resize(4 * arg); err != nil && !errors.Is(err, ringbuffer.ErrTooSmall) {
							t.Errorf("Resize: %v", err)
						}
						_, _, _ = r.Len(), r.ViewHeldFor(), r.ResizePending()
					}
				}
				if len(mscript) == 0 {
					<-stop
					return
				}
			}
		}()

		wg.Wait()
		close(stop)
		third.Wait()
		if want := <-total; got != want {
			t.Fatalf("consumed %d of %d elements", got, want)
		}
		g.balanced("end")
	})
}
