package ringbuffer

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestTelemetryLayout pins the hot fields and counters to cache lines by
// writer: the producer's (tail, its window, Pushes, WriteBlockNs, Evicted,
// Shed, the occupancy histogram) end at least a line before the consumer's
// (Pops, ReadBlockNs, Views, ViewHoldNs, head, its window) begin, head
// (which the producer loads) has the last line to itself, and the fields
// both ends read on every operation sit a line before either, so neither
// end's bookkeeping moves a line the other end writes. The ring is budgeted
// at 14 cache lines, a size class of the allocator that keeps it aligned:
// every link pays them. The cold words (the lock, the resize counts, the
// block stamps, the window owners) are what keeps the sections apart, and
// the producer's section opens a cache line.
func TestTelemetryLayout(t *testing.T) {
	var r Ring[int]
	tel := unsafe.Offsetof(r.tel)
	field := func(off uintptr) uintptr { return tel + off }
	prod := []uintptr{unsafe.Offsetof(r.tail), unsafe.Offsetof(r.rattn), unsafe.Offsetof(r.pbusy),
		unsafe.Offsetof(r.headCache), unsafe.Offsetof(r.ww), unsafe.Offsetof(r.wviewN), unsafe.Offsetof(r.wviewSince),
		field(unsafe.Offsetof(r.tel.Pushes)), field(unsafe.Offsetof(r.tel.WriteBlockNs)),
		field(unsafe.Offsetof(r.tel.Evicted)), field(unsafe.Offsetof(r.tel.Shed)),
		field(unsafe.Offsetof(r.tel.occ) + unsafe.Sizeof(r.tel.occ) - 8)}
	cons := []uintptr{field(unsafe.Offsetof(r.tel.Pops)), field(unsafe.Offsetof(r.tel.ReadBlockNs)),
		field(unsafe.Offsetof(r.tel.Views)), field(unsafe.Offsetof(r.tel.ViewHoldNs)),
		unsafe.Offsetof(r.head), unsafe.Offsetof(r.wattn), unsafe.Offsetof(r.tailCache), unsafe.Offsetof(r.cst),
		unsafe.Offsetof(r.rw), unsafe.Offsetof(r.viewN), unsafe.Offsetof(r.viewSince)}
	if gap := slices.Min(cons) - (slices.Max(prod) + 8); gap < 64 {
		t.Fatalf("producer and consumer fields %d bytes apart, want >= 64", gap)
	}
	if h := unsafe.Offsetof(r.head); h%64 != 0 || unsafe.Sizeof(r)-h != 64 || unsafe.Offsetof(r.viewSince)+8 > h {
		t.Fatalf("head at %d of %d bytes: want it to open the ring's last cache line, alone with wattn", h, unsafe.Sizeof(r))
	}
	if gap := slices.Min(prod) - (unsafe.Offsetof(r.deferredCap) + 4); gap < 64 {
		t.Fatalf("shared fields and the producer's %d bytes apart, want >= 64", gap)
	}
	// The lock and condition before it are written whenever an end sleeps
	// or wakes: they must not share tail's line.
	if tail := unsafe.Offsetof(r.tail); tail != slices.Min(prod) || tail%64 != 0 {
		t.Fatalf("tail at byte %d: want it to open the producer's first cache line", tail)
	}
	if s := unsafe.Sizeof(r); s > 14*64 {
		t.Fatalf("Ring[int] is %d bytes, over its budget of 14 cache lines", s)
	}
}

// TestRingReleasesPayloadsForGC: a ring whose elements hold pointers clears
// each slot it releases, so a popped payload is collectable at once — out
// of a scalar pop, a read window and a bulk pop alike. A pointer-free ring
// skips that work.
func TestRingReleasesPayloadsForGC(t *testing.T) {
	type payload struct{ buf [64]byte }
	collected := func(pop func(r *Ring[*payload])) bool {
		r := NewRing[*payload](8)
		done := make(chan struct{})
		func() {
			p := &payload{}
			runtime.SetFinalizer(p, func(*payload) { close(done) })
			if err := r.Push(p, SigNone); err != nil {
				t.Fatal(err)
			}
		}()
		pop(r)
		for i := 0; i < 20; i++ {
			runtime.GC()
			select {
			case <-done:
				runtime.KeepAlive(r)
				return true
			case <-time.After(10 * time.Millisecond):
			}
		}
		runtime.KeepAlive(r)
		return false
	}
	for name, pop := range map[string]func(r *Ring[*payload]){
		"pop": func(r *Ring[*payload]) { _, _, _ = r.Pop() },
		"window": func(r *Ring[*payload]) {
			_ = r.Push(nil, SigNone)
			_, _, _, _, _ = r.PopWindowed(4, true)
			r.ReleaseWindow()
		},
		"popn": func(r *Ring[*payload]) { _, _ = r.PopN(make([]*payload, 4), nil) },
	} {
		if !collected(pop) {
			t.Errorf("%s: popped payload still referenced by the ring", name)
		}
	}
	if !NewRing[*payload](1).zero || NewRing[int](1).zero || NewRing[struct{ a, b int64 }](1).zero {
		t.Fatal("zeroing decided wrongly for the element type")
	}
	r := NewRing[int](4)
	_ = r.Push(7, SigNone)
	_, _, _ = r.Pop()
	if r.s0.vals[0] != 7 {
		t.Fatal("a pointer-free ring zeroed a popped slot")
	}
}
