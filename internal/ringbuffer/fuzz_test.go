package ringbuffer

import (
	"sync"
	"testing"
)

// FuzzRingAgainstModel drives a Ring with a fuzzer-chosen op sequence and
// checks every observation against a plain-slice FIFO model: the scalar
// paths through port windows of fuzzer-chosen length (the lock-free commit),
// retires at any point, and resizes that meet an open write window (the
// handover waits for its end) or an open read window (it does not). Ops
// are one byte each: 0-79 push (window op%5+1), 80-99 commit, 100-179 pop
// (window op%5+1), 180-199 release, 200-229 resize (capacity from the low
// bits), 230-255 peek. The counters obey the drop law at every retire.
func FuzzRingAgainstModel(f *testing.F) {
	f.Add([]byte{1, 2, 3, 150, 150, 201, 4, 150})
	f.Add([]byte{10, 210, 120, 230})
	f.Add([]byte{4, 4, 4, 4, 203, 104, 104, 220, 90, 104, 190, 240, 104, 104})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip()
		}
		r := NewRing[int](4)
		var model []int // published, not yet popped
		next := 0
		for _, op := range ops {
			wpos := r.WindowPos(true)
			switch {
			case op < 80:
				free := wpos != 0 || r.Len() < r.Cap()
				stored, attend := r.WindowPush(next)
				ok := stored
				if attend {
					r.Attend()
				}
				if !stored {
					var err error
					if _, ok, err = r.PushWindowed(next, SigNone, int(op%5)+1, false); err != nil {
						t.Fatalf("push err: %v", err)
					}
				}
				if ok != free {
					t.Fatalf("push ok=%v with a free slot %v", ok, free)
				}
				if ok {
					model = append(model, next)
					next++
				}
			case op < 100:
				r.CommitWindow()
			case op < 180:
				v, _, ok := r.WindowPop()
				if !ok {
					var err error
					if v, _, _, ok, err = r.PopWindowed(int(op%5)+1, false); err != nil {
						t.Fatalf("pop err: %v", err)
					}
				}
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v with model len %d", ok, len(model))
				}
				if ok {
					if v != model[0] {
						t.Fatalf("pop = %d, model head %d", v, model[0])
					}
					model = model[1:]
				}
			case op < 200:
				r.ReleaseWindow()
			case op < 230:
				newCap := int(op-199) * 2
				before := r.Cap()
				err := r.Resize(newCap)
				if newCap < r.Len() {
					if err != ErrTooSmall {
						t.Fatalf("undersized resize err = %v", err)
					}
				} else if err != nil {
					t.Fatalf("resize err: %v", err)
				} else if want := newCap; wpos != 0 && newCap != before {
					if r.Cap() != before || !r.ResizePending() {
						t.Fatalf("resize under a write window: cap %d pending %v", r.Cap(), r.ResizePending())
					}
					if n := r.CommitWindow(); n != wpos || r.Cap() != want || r.ResizePending() {
						t.Fatalf("commit = %d: cap %d pending %v, want %d applied", n, r.Cap(), r.ResizePending(), want)
					}
				} else if r.Cap() != want || r.ResizePending() {
					t.Fatalf("resize with no write window: cap %d pending %v, want %d", r.Cap(), r.ResizePending(), want)
				}
			default: // peek head, which retires the read window first
				r.ReleaseWindow()
				if len(model) == 0 {
					continue
				}
				v, _, err := r.Peek(0)
				if err != nil {
					t.Fatalf("peek err: %v", err)
				}
				if v != model[0] {
					t.Fatalf("peek = %d, model head %d", v, model[0])
				}
			}
			if got, want := r.Len(), len(model)+r.WindowPos(false); got != want {
				t.Fatalf("len = %d, model %d", got, want)
			}
			if r.WindowPos(true) == 0 && r.WindowPos(false) == 0 {
				tel := r.Telemetry().Snapshot()
				if tel.Pushes != uint64(next) || tel.Pops != uint64(next-len(model)) {
					t.Fatalf("pushes %d pops %d, want %d and %d", tel.Pushes, tel.Pops, next, next-len(model))
				}
			}
		}
		// Retire, drain and compare the tail.
		r.CommitWindow()
		r.ReleaseWindow()
		r.Close()
		for _, want := range model {
			v, _, err := r.Pop()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if v != want {
				t.Fatalf("drain = %d, want %d", v, want)
			}
		}
		if _, _, err := r.Pop(); err != ErrClosed {
			t.Fatalf("final pop err = %v, want ErrClosed", err)
		}
	})
}

// FuzzRingBulkAgainstModel drives the bulk operations (PushN / DrainTo)
// against the slice model, with resizes interleaved so batches land across
// wrap-around splits and relocated storage. Signals are derived from values
// (every 3rd element carries SigUser) so alignment is checked end to end.
// Ops: 0-99 PushN (batch = op%7+1), 100-199 DrainTo (batch = op%5+1),
// 200-255 resize.
func FuzzRingBulkAgainstModel(f *testing.F) {
	f.Add([]byte{5, 3, 150, 201, 9, 120, 250, 1, 1, 130})
	f.Add([]byte{99, 99, 199, 199, 230, 99, 150})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			t.Skip()
		}
		sigFor := func(v int) Signal {
			if v%3 == 0 {
				return SigUser
			}
			return SigNone
		}
		r := NewRing[int](4)
		var model []int
		next := 0
		for _, op := range ops {
			switch {
			case op < 100: // bulk push (blocks only when batch > free; keep batch <= cap slack via resize first)
				batch := int(op)%7 + 1
				free := r.Cap() - r.Len()
				if free == 0 {
					continue // a blocking PushN would deadlock single-threaded
				}
				if batch > free {
					batch = free
				}
				vs := make([]int, batch)
				sigs := make([]Signal, batch)
				for i := range vs {
					vs[i] = next + i
					sigs[i] = sigFor(next + i)
				}
				if err := r.PushN(vs, sigs); err != nil {
					t.Fatalf("PushN err: %v", err)
				}
				model = append(model, vs...)
				next += batch
			case op < 200: // bulk drain
				batch := int(op)%5 + 1
				dst := make([]int, batch)
				sigs := make([]Signal, batch)
				n, err := r.DrainTo(dst, sigs)
				if err != nil {
					t.Fatalf("DrainTo err: %v", err)
				}
				if n == 0 && len(model) > 0 {
					t.Fatalf("DrainTo drained nothing with model len %d", len(model))
				}
				if n > len(model) {
					t.Fatalf("DrainTo = %d, model has %d", n, len(model))
				}
				for i := 0; i < n; i++ {
					if dst[i] != model[i] {
						t.Fatalf("DrainTo[%d] = %d, model %d", i, dst[i], model[i])
					}
					if sigs[i] != sigFor(model[i]) {
						t.Fatalf("DrainTo sig[%d] = %v, want %v (v=%d)", i, sigs[i], sigFor(model[i]), model[i])
					}
				}
				model = model[n:]
			default: // resize
				newCap := int(op-199) * 2
				if err := r.Resize(newCap); err != nil && err != ErrTooSmall {
					t.Fatalf("resize err: %v", err)
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("len = %d, model %d", r.Len(), len(model))
			}
		}
		// Drain the tail and re-verify order + signals after close.
		r.Close()
		for len(model) > 0 {
			dst := make([]int, 3)
			sigs := make([]Signal, 3)
			n, err := r.PopN(dst, sigs)
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			for i := 0; i < n; i++ {
				if dst[i] != model[i] || sigs[i] != sigFor(model[i]) {
					t.Fatalf("drain[%d] = (%d,%v), want (%d,%v)", i, dst[i], sigs[i], model[i], sigFor(model[i]))
				}
			}
			model = model[n:]
		}
		if _, err := r.PopN(make([]int, 1), nil); err != ErrClosed {
			t.Fatalf("final PopN err = %v, want ErrClosed", err)
		}
	})
}

// FuzzRingBulkConcurrentResize runs a producer, a consumer and a resizer
// concurrently on one Ring, then asserts the consumer observed the exact
// FIFO sequence with every signal still aligned to its element, and that
// the counters balance. Both ends mix the bulk path (loops over views) with
// the scalar path (port windows), so commits without a lock meet the
// handover to a new store from either side; batches must survive
// wrap-around splits and the move between stores intact. The fuzzer
// chooses the batch-size schedule, which batches go scalar (a byte >= 128),
// and the resize schedule.
func FuzzRingBulkConcurrentResize(f *testing.F) {
	f.Add([]byte{4, 9, 1, 16, 3, 7}, []byte{8, 200, 16, 4, 64})
	f.Add([]byte{1, 1, 1}, []byte{255, 2, 255, 2})
	f.Add([]byte{133, 9, 200, 3, 255}, []byte{8, 100, 4, 60, 16})
	f.Fuzz(func(t *testing.T, batches, resizes []byte) {
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
		r := NewRing[int](8)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer: PushN with fuzzer-chosen batch sizes
			defer wg.Done()
			defer r.Close()
			next, bi := 0, 0
			for next < total {
				batch := int(batches[bi%len(batches)])%17 + 1
				bi++
				if batch > total-next {
					batch = total - next
				}
				if b := batches[(bi-1)%len(batches)]; b >= 128 {
					// The scalar path: a port window of length b%9+1,
					// committed at the end of the batch.
					for i := 0; i < batch; i++ {
						if _, _, err := r.PushWindowed(next, sigFor(next), int(b%9)+1, true); err != nil {
							t.Errorf("PushWindowed: %v", err)
							return
						}
						next++
					}
					r.CommitWindow()
					continue
				}
				vs := make([]int, batch)
				sigs := make([]Signal, batch)
				for i := range vs {
					vs[i] = next + i
					sigs[i] = sigFor(next + i)
				}
				if err := r.PushN(vs, sigs); err != nil {
					t.Errorf("PushN: %v", err)
					return
				}
				next += batch
			}
		}()
		go func() { // resizer: grow/shrink under the traffic
			defer wg.Done()
			for _, b := range resizes {
				_ = r.Resize(int(b)%120 + 2) // ErrTooSmall is fine
			}
		}()
		got := make([]int, 0, total)
		dst := make([]int, 13)
		sigs := make([]Signal, 13)
		for round := 0; ; round++ {
			var n int
			var err error
			if round%2 == 0 {
				n, err = r.PopN(dst, sigs)
			} else {
				// The scalar path: a read window of up to 8, released after
				// 13 pops or at the end of the stream.
				for n < len(dst) {
					if dst[n], sigs[n], _, _, err = r.PopWindowed(8, true); err != nil {
						break
					}
					n++
				}
				r.ReleaseWindow()
			}
			for i := 0; i < n; i++ {
				if want := sigFor(dst[i]); sigs[i] != want {
					t.Fatalf("signal misaligned: v=%d sig=%v want %v", dst[i], sigs[i], want)
				}
			}
			got = append(got, dst[:n]...)
			if err != nil {
				break
			}
		}
		wg.Wait()
		if len(got) != total {
			t.Fatalf("received %d elements, want %d", len(got), total)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("FIFO order broken at %d: got %d", i, v)
			}
		}
		if tel := r.Telemetry().Snapshot(); tel.Pushes != total || tel.Pops != total {
			t.Fatalf("pushes %d pops %d, want %d each", tel.Pushes, tel.Pops, total)
		}
	})
}
