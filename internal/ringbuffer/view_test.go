package ringbuffer

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestRingViewBasic borrows, verifies contents and signals in place, and
// releases partially: the remainder must stay buffered.
func TestRingViewBasic(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 5; i++ {
		sig := SigNone
		if i == 2 {
			sig = SigUser
		}
		if err := r.Push(i, sig); err != nil {
			t.Fatal(err)
		}
	}
	v, err := r.AcquireView(4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 {
		t.Fatalf("view len = %d, want 4", v.Len())
	}
	for i := 0; i < 4; i++ {
		if v.At(i) != i {
			t.Fatalf("At(%d) = %d", i, v.At(i))
		}
		want := SigNone
		if i == 2 {
			want = SigUser
		}
		if v.SigAt(i) != want {
			t.Fatalf("SigAt(%d) = %v, want %v", i, v.SigAt(i), want)
		}
	}
	r.ReleaseView(2) // consume 0,1; 2,3,4 stay
	if r.Len() != 3 {
		t.Fatalf("len after partial release = %d, want 3", r.Len())
	}
	v2, err := r.AcquireView(8)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Len() != 3 || v2.At(0) != 2 || v2.SigAt(0) != SigUser {
		t.Fatalf("second view = len %d head (%d,%v)", v2.Len(), v2.At(0), v2.SigAt(0))
	}
	r.ReleaseView(3)
	if r.Len() != 0 {
		t.Fatalf("len = %d, want 0", r.Len())
	}
	tel := r.Telemetry().Snapshot()
	if tel.Views != 2 {
		t.Fatalf("views = %d, want 2", tel.Views)
	}
	if tel.Pops != 5 {
		t.Fatalf("pops = %d, want 5", tel.Pops)
	}
}

// TestRingViewWrapSplit forces the buffered region to wrap and checks the
// view surfaces it as two aligned segments.
func TestRingViewWrapSplit(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 4; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	// Consume 2, push 2 more: region is [2,3,4,5] wrapping at index 0.
	for i := 0; i < 2; i++ {
		if _, _, err := r.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Push(4, SigNone); err != nil {
		t.Fatal(err)
	}
	if err := r.Push(5, SigEOF); err != nil {
		t.Fatal(err)
	}
	v, err := r.AcquireView(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Vals) != 2 || len(v.Vals2) != 2 {
		t.Fatalf("segments = %d+%d, want 2+2", len(v.Vals), len(v.Vals2))
	}
	for i := 0; i < 4; i++ {
		if v.At(i) != i+2 {
			t.Fatalf("At(%d) = %d, want %d", i, v.At(i), i+2)
		}
	}
	if v.SigAt(3) != SigEOF {
		t.Fatalf("SigAt(3) = %v, want EOF", v.SigAt(3))
	}
	r.ReleaseView(4)
	if r.Len() != 0 {
		t.Fatalf("len = %d", r.Len())
	}
}

// TestRingWriteViewRoundTrip reserves slots, fills a prefix in place,
// publishes it, and pops the elements back with signals aligned.
func TestRingWriteViewRoundTrip(t *testing.T) {
	r := NewRing[int](8)
	wv, err := r.AcquireWriteView(6)
	if err != nil {
		t.Fatal(err)
	}
	if wv.Len() != 6 {
		t.Fatalf("write view len = %d, want 6", wv.Len())
	}
	for i := 0; i < 4; i++ {
		sig := SigNone
		if i == 3 {
			sig = SigEOF
		}
		wv.SetAt(i, 10+i, sig)
	}
	r.ReleaseWriteView(4)
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		v, s, err := r.Pop()
		if err != nil || v != 10+i {
			t.Fatalf("pop = (%d, %v), want %d", v, err, 10+i)
		}
		want := SigNone
		if i == 3 {
			want = SigEOF
		}
		if s != want {
			t.Fatalf("sig[%d] = %v, want %v", i, s, want)
		}
	}
}

// TestRingWriteViewSurvivesDrainToEmpty publishes through a write view
// while the consumer drains the ring empty mid-borrow: the reserved
// window's physical position must not move (the empty-ring head reset is
// suppressed), so the published prefix comes out intact.
func TestRingWriteViewSurvivesDrainToEmpty(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 3; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	wv, err := r.AcquireWriteView(4)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the ring empty while the write view is out.
	for i := 0; i < 3; i++ {
		v, _, err := r.Pop()
		if err != nil || v != i {
			t.Fatalf("pop = (%d, %v), want %d", v, err, i)
		}
	}
	wv.SetAt(0, 100, SigNone)
	wv.SetAt(1, 101, SigUser)
	r.ReleaseWriteView(2)
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	v, s, err := r.Pop()
	if err != nil || v != 100 || s != SigNone {
		t.Fatalf("pop = (%d,%v,%v)", v, s, err)
	}
	v, s, err = r.Pop()
	if err != nil || v != 101 || s != SigUser {
		t.Fatalf("pop = (%d,%v,%v)", v, s, err)
	}
}

// TestRingViewDefersResize: a resize requested while a write view is out

// TestResizePendingMirrorsDeferredCap checks that the lock-free
// ResizePending reads what the lock guards: the attnResize bit is up exactly
// while a resize waits in deferredCap — not after an applied resize, during
// a deferred one, nor after a deferred one that is applied, or that finds
// the ring already at its target when the producer's boundary comes.
func TestResizePendingMirrorsDeferredCap(t *testing.T) {
	check := func(r *Ring[int], when string, want bool) {
		t.Helper()
		r.mu.Lock()
		deferred := r.deferredCap != 0
		r.mu.Unlock()
		if got := r.ResizePending(); got != want || deferred != want {
			t.Fatalf("%s: ResizePending %v, deferredCap set %v, want both %v", when, got, deferred, want)
		}
	}
	// fill pushes three elements and opens a one-slot write view.
	fill := func(r *Ring[int]) WriteView[int] {
		t.Helper()
		for i := 0; i < 3; i++ {
			if err := r.Push(i, SigNone); err != nil {
				t.Fatal(err)
			}
		}
		w, err := r.AcquireWriteView(1)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	r := NewRing[int](4)
	check(r, "new ring", false)
	if err := r.Resize(8); err != nil || r.Cap() != 8 {
		t.Fatalf("idle resize: cap %d err %v, want 8 applied", r.Cap(), err)
	}
	check(r, "applied resize", false)
	w := fill(r)
	if err := r.Resize(16); err != nil {
		t.Fatal(err)
	}
	check(r, "resize under a write view", true)
	w.SetAt(0, 3, SigNone)
	r.ReleaseWriteView(1)
	check(r, "deferred resize applied", false)
	if r.Cap() != 16 {
		t.Fatalf("cap %d, want 16", r.Cap())
	}
	// A deferred resize to the length that finds the ring full at the
	// producer's boundary is clamped to the store it has: nothing is
	// installed, and the bit must still go down.
	r = NewRing[int](4)
	w = fill(r)
	if err := r.Resize(3); err != nil {
		t.Fatal(err)
	}
	check(r, "resize to the length under a write view", true)
	w.SetAt(0, 3, SigNone)
	r.ReleaseWriteView(1)
	check(r, "clamped resize at the boundary", false)
	if r.Cap() != 4 {
		t.Fatalf("cap %d, want 4", r.Cap())
	}
}

// waits for its release (the producer may be writing the store); one
// requested while a read view is out applies at once, and the borrowed
// storage is not touched: the consumer drains the sealed store.
func TestRingViewDefersResize(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 3; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	w, err := r.AcquireWriteView(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Resize(16); err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 4 || !r.ResizePending() {
		t.Fatalf("cap %d pending %v under a write view, want 4 and pending", r.Cap(), r.ResizePending())
	}
	// Shrink below the published length must still be refused mid-view.
	if err := r.Resize(2); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("undersized resize = %v, want ErrTooSmall", err)
	}
	w.SetAt(0, 3, SigNone)
	r.ReleaseWriteView(1)
	if r.Cap() != 16 || r.ResizePending() {
		t.Fatalf("deferred resize not applied: cap = %d, pending %v", r.Cap(), r.ResizePending())
	}

	v, err := r.AcquireView(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Resize(32); err != nil || r.Cap() != 32 {
		t.Fatalf("resize under a read view = %v, cap %d; want applied at once", err, r.Cap())
	}
	if v.At(0) != 0 || v.At(1) != 1 {
		t.Fatal("view contents changed under the resize")
	}
	r.ReleaseView(2)
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	for want := 2; want < 4; want++ {
		if v, _, err := r.Pop(); err != nil || v != want {
			t.Fatalf("pop = (%d, %v), want %d", v, err, want)
		}
	}
}

// TestRingViewPinsBestEffortEviction: while a read view is out, a full
// best-effort ring must shed incoming elements instead of evicting the
// borrowed head; after release, latest-wins eviction resumes.
func TestRingViewPinsBestEffortEviction(t *testing.T) {
	r := NewRing[int](4)
	r.SetBestEffort(true)
	for i := 0; i < 4; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	v, err := r.AcquireView(4)
	if err != nil {
		t.Fatal(err)
	}
	// Full ring + pinned head: the incoming element is shed, not the head.
	if err := r.Push(99, SigNone); err != nil {
		t.Fatal(err)
	}
	if got := r.Telemetry().Drops(); got != 1 {
		t.Fatalf("drops = %d, want 1 (incoming shed)", got)
	}
	for i := 0; i < 4; i++ {
		if v.At(i) != i {
			t.Fatalf("borrowed element %d changed: %d", i, v.At(i))
		}
	}
	r.ReleaseView(0) // consume nothing; head unpinned
	// Eviction resumes: pushing into the full ring now evicts the oldest.
	if err := r.Push(100, SigNone); err != nil {
		t.Fatal(err)
	}
	if got := r.Telemetry().Drops(); got != 2 {
		t.Fatalf("drops = %d, want 2 (head evicted)", got)
	}
	if v0, _, err := r.Pop(); err != nil || v0 != 1 {
		t.Fatalf("head = (%d, %v), want 1 after eviction", v0, err)
	}
}

// TestResizeCompletesUnderShortViews is the starvation acceptance bar: a
// resize requested while a consumer churns short-lived views must still
// complete. The subtest is named for the Ring's mutex-guarded indices.
func TestResizeCompletesUnderShortViews(t *testing.T) {
	t.Run("mutex", testResizeUnderShortViews)
}

func testResizeUnderShortViews(t *testing.T) {
	r := NewRing[int](4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer keeps the ring non-empty
		defer wg.Done()
		// TryPush, not Push: once the main goroutine closes stop the
		// consumer quits immediately, and a producer parked in a blocking
		// Push on the then-full ring would never wake.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.TryPush(i, SigNone); err != nil {
				return
			}
		}
	}()
	go func() { // consumer churns short-lived views
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, err := r.TryAcquireView(4)
			if err != nil {
				return
			}
			if v.Len() > 0 {
				r.ReleaseView(v.Len())
			}
		}
	}()
	if err := r.Resize(64); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Cap() != 64 {
		if time.Now().After(deadline) {
			t.Fatal("resize starved by view churn")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

// TestViewHeldFor checks the monitor probe: zero with no view out,
// positive while one is held, zero again after release — and the hold time
// lands in ViewHoldNs.
func TestViewHeldFor(t *testing.T) {
	r := NewRing[int](4)
	if r.ViewHeldFor() != 0 {
		t.Fatal("held-for nonzero with no view out")
	}
	_ = r.Push(1, SigNone)
	rv, _ := r.AcquireView(1)
	time.Sleep(2 * time.Millisecond)
	if r.ViewHeldFor() <= 0 {
		t.Fatal("held-for zero while a view is out")
	}
	r.ReleaseView(rv.Len())
	if r.ViewHeldFor() != 0 {
		t.Fatal("held-for nonzero after release")
	}
	if r.Telemetry().Snapshot().ViewHoldNs == 0 {
		t.Fatal("ViewHoldNs not recorded")
	}
}

// FuzzViewResize runs a bulk producer (PushN, or write views when mode bit
// 2 is set), a resizer and a view-borrowing consumer concurrently, with
// either overflow policy (the fuzzer picks). The consumer acquires views,
// verifies every visible element in place, and releases fuzzer-chosen
// prefixes — so read views span the handover to a new store and mid-view
// shrinks, write views hold resizes up, and best-effort eviction meets
// pinned heads. Released
// elements must form the exact FIFO sequence (or, best-effort, an ordered
// subsequence with every loss counted as Evicted or Shed).
func FuzzViewResize(f *testing.F) {
	f.Add([]byte{4, 9, 1, 16, 3}, []byte{8, 200, 16, 4, 64}, uint8(3), uint8(0))
	f.Add([]byte{1, 1, 1}, []byte{255, 2, 255, 2}, uint8(1), uint8(1))
	f.Add([]byte{17, 5}, []byte{3, 120, 7}, uint8(12), uint8(2))
	f.Add([]byte{8, 8, 8, 8}, []byte{2, 90, 2, 90}, uint8(7), uint8(3))
	f.Add([]byte{6, 2, 11, 4}, []byte{40, 3, 250, 9}, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, batches, resizes []byte, grains, mode uint8) {
		if len(batches) == 0 || len(batches) > 64 || len(resizes) > 64 {
			t.Skip()
		}
		const total = 2000
		sigFor := func(v int) Signal {
			if v%5 == 0 {
				return SigUser
			}
			return SigNone
		}
		bestEffort := mode&1 != 0
		q := NewRing[int](8)
		// Latest-wins eviction only sheds signal-free elements; with best
		// effort on, the producer pushes no signals, so everything is
		// sheddable and the producer never wedges against a pinned head.
		q.SetBestEffort(bestEffort)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer: PushN or write views, fuzzer-chosen batch sizes
			defer wg.Done()
			defer q.Close()
			next, bi := 0, 0
			for next < total {
				batch := int(batches[bi%len(batches)])%17 + 1
				bi++
				if batch > total-next {
					batch = total - next
				}
				if mode&2 != 0 && batch%2 == 0 {
					// A write view: reserve, fill in place, publish.
					w, err := q.AcquireWriteView(batch)
					if err != nil {
						t.Errorf("AcquireWriteView: %v", err)
						return
					}
					for i := 0; i < w.Len(); i++ {
						s := SigNone
						if !bestEffort {
							s = sigFor(next + i)
						}
						w.SetAt(i, next+i, s)
					}
					q.ReleaseWriteView(w.Len())
					next += w.Len()
					continue
				}
				vs := make([]int, batch)
				var sigs []Signal
				if !bestEffort {
					sigs = make([]Signal, batch)
				}
				for i := range vs {
					vs[i] = next + i
					if sigs != nil {
						sigs[i] = sigFor(next + i)
					}
				}
				if err := q.PushN(vs, sigs); err != nil {
					t.Errorf("PushN: %v", err)
					return
				}
				next += batch
			}
		}()
		go func() { // resizer: grows and mid-view shrinks
			defer wg.Done()
			for _, b := range resizes {
				_ = q.Resize(int(b)%300 + 2) // ErrTooSmall is fine
			}
		}()
		// Consumer: borrow, verify in place, release a fuzzer-chosen prefix.
		released := 0
		last := -1
		gi := 0
		for {
			v, err := q.AcquireView(int(grains)%13 + 1)
			if v.Len() > 0 {
				prev := last
				for i := 0; i < v.Len(); i++ {
					e := v.At(i)
					if e <= prev {
						t.Fatalf("order broken in view: %d after %d", e, prev)
					}
					if !bestEffort && v.SigAt(i) != sigFor(e) {
						t.Fatalf("signal misaligned: v=%d sig=%v", e, v.SigAt(i))
					}
					prev = e
				}
				k := int(batches[gi%len(batches)])%v.Len() + 1
				gi++
				last = v.At(k - 1)
				released += k
				q.ReleaseView(k)
			}
			if err != nil {
				break
			}
		}
		wg.Wait()
		// One law for both policies: every offered element was released,
		// evicted (resident, then dropped: counted in Pushes) or shed
		// (never entered: counted in neither), and after the drain every
		// push was popped or evicted.
		snap := q.Telemetry().Snapshot()
		if released+int(snap.Evicted+snap.Shed) != total {
			t.Fatalf("released %d + evicted %d + shed %d != offered %d", released, snap.Evicted, snap.Shed, total)
		}
		if !bestEffort && released != total {
			t.Fatalf("lost elements without best effort: %d/%d", released, total)
		}
		if snap.Pushes != snap.Pops+snap.Evicted {
			t.Fatalf("flow imbalance after drain: pushes=%d pops=%d evicted=%d shed=%d", snap.Pushes, snap.Pops, snap.Evicted, snap.Shed)
		}
	})
}

// FuzzViewModelResize checks the view surface against a plain-slice model:
// a single goroutine (legal as both endpoints) interleaves scalar ops, view
// borrows that stay open across other ops, resize requests and write views,
// checking every observation against the model. Ops: 0-59 TryPush, 60-109 TryPop,
// 110-149 Resize, 150-179 acquire read view, 180-209 release read view,
// 210-239 acquire+fill write view, 240-255 release write view.
func FuzzViewModelResize(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 150, 120, 180, 4, 100, 240})
	f.Add([]byte{1, 10, 10, 10, 155, 111, 111, 185, 100, 100})
	f.Add([]byte{0, 215, 245, 215, 241, 60, 60, 150, 181})
	f.Add([]byte{1, 5, 5, 150, 130, 5, 190, 217, 250, 65})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 4096 {
			t.Skip()
		}
		sigFor := func(v int) Signal {
			if v%3 == 0 {
				return SigUser
			}
			return SigNone
		}
		q := NewRing[int](4)
		var model []int
		next := 0
		viewLen := -1  // outstanding read view length, -1 when none
		wviewLen := -1 // outstanding write view length, -1 when none
		for _, op := range ops {
			switch {
			case op < 60: // TryPush — illegal while a write view reserves the tail
				if wviewLen >= 0 {
					continue
				}
				ok, err := q.TryPush(next, sigFor(next))
				if err != nil {
					t.Fatalf("push err: %v", err)
				}
				if ok {
					model = append(model, next)
					next++
				}
			case op < 110: // TryPop — illegal while a read view pins the head
				if viewLen >= 0 {
					continue
				}
				v, s, ok, err := q.TryPop()
				if err != nil {
					t.Fatalf("pop err: %v", err)
				}
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v with model len %d", ok, len(model))
				}
				if ok {
					if v != model[0] || s != sigFor(model[0]) {
						t.Fatalf("pop = (%d,%v), model head (%d,%v)", v, s, model[0], sigFor(model[0]))
					}
					model = model[1:]
				}
			case op < 150: // Resize: deferred while a view is out
				newCap := int(op-109) * 2
				err := q.Resize(newCap)
				if newCap < len(model) {
					if !errors.Is(err, ErrTooSmall) {
						t.Fatalf("undersized resize err = %v", err)
					}
				} else if err != nil {
					t.Fatalf("resize err: %v", err)
				}
			case op < 180: // acquire read view; stays open across later ops
				if viewLen >= 0 {
					continue
				}
				v, err := q.TryAcquireView(int(op)%7 + 1)
				if err != nil {
					t.Fatalf("acquire err: %v", err)
				}
				if v.Len() == 0 {
					if len(model) > 0 {
						t.Fatalf("empty view with model len %d", len(model))
					}
					continue
				}
				if v.Len() > len(model) {
					t.Fatalf("view len %d > model %d", v.Len(), len(model))
				}
				for i := 0; i < v.Len(); i++ {
					if v.At(i) != model[i] || v.SigAt(i) != sigFor(model[i]) {
						t.Fatalf("view[%d] = (%d,%v), model (%d,%v)", i, v.At(i), v.SigAt(i), model[i], sigFor(model[i]))
					}
				}
				viewLen = v.Len()
			case op < 210: // release read view (fuzzer-chosen prefix)
				if viewLen < 0 {
					continue
				}
				k := int(op) % (viewLen + 1)
				q.ReleaseView(k)
				model = model[k:]
				viewLen = -1
			case op < 240: // acquire + fill write view
				if wviewLen >= 0 {
					continue
				}
				wv, err := q.TryAcquireWriteView(int(op)%5 + 1)
				if err != nil {
					t.Fatalf("acquire write err: %v", err)
				}
				if wv.Len() == 0 {
					continue
				}
				for i := 0; i < wv.Len(); i++ {
					wv.SetAt(i, next+i, sigFor(next+i))
				}
				wviewLen = wv.Len()
			default: // release write view (fuzzer-chosen prefix published)
				if wviewLen < 0 {
					continue
				}
				k := int(op) % (wviewLen + 1)
				q.ReleaseWriteView(k)
				for i := 0; i < k; i++ {
					model = append(model, next+i)
				}
				next += k // unpublished values are discarded; reuse the numbers
				wviewLen = -1
			}
			if q.Len() != len(model) {
				t.Fatalf("len = %d, model %d", q.Len(), len(model))
			}
		}
		// Close any outstanding borrows without consuming, then drain the
		// remainder and re-verify order + signals after close.
		if viewLen >= 0 {
			q.ReleaseView(0)
		}
		if wviewLen >= 0 {
			q.ReleaseWriteView(0)
		}
		q.Close()
		for _, want := range model {
			v, s, err := q.Pop()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if v != want || s != sigFor(want) {
				t.Fatalf("drain = (%d,%v), want (%d,%v)", v, s, want, sigFor(want))
			}
		}
		if _, _, err := q.Pop(); !errors.Is(err, ErrClosed) {
			t.Fatalf("final pop err = %v, want ErrClosed", err)
		}
	})
}
