package raft

import (
	"reflect"
	"testing"
	"unsafe"

	"raftlib/internal/core"
	"raftlib/internal/stats"
)

// skipOff64 skips a layout test on a 32-bit target, where every offset it
// pins moves.
func skipOff64(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit targets")
	}
}

// TestKernelSlotLayout pins a kernel's state by how often it is touched
// (DESIGN "Per-transaction slabs"). Every word the actor's goroutine writes
// or follows on every step — the observation and hold countdowns, Finished,
// the span mark, the Runner, the Gate and the run count at the head of
// Service — lies in the slot's first cache line; the slot holds the actor
// and its gate and is padded to whole 128-byte pairs of lines, so no pair
// holds two kernels' hot words; and the cold registry entry is a packed
// record of its own.
func TestKernelSlotLayout(t *testing.T) {
	skipOff64(t)
	actor := reflect.TypeFor[core.Actor]()
	runs, ok := reflect.TypeFor[stats.ServiceTimer]().FieldByName("runs")
	if !ok || runs.Offset != 0 {
		t.Fatal("the run count is not the first word of the service timer")
	}
	for _, name := range []string{"unobserved", "holdLeft", "holdSteps", "obsWeight", "jitter",
		"Finished", "nextSpan", "Runner", "Gate", "Service"} {
		f, ok := actor.FieldByName(name)
		if !ok {
			t.Fatalf("core.Actor has no field %s", name)
		}
		end := f.Offset + f.Type.Size()
		if name == "Service" {
			end = f.Offset + runs.Type.Size()
		}
		if end > 64 {
			t.Errorf("hot word %s ends at byte %d of the actor, outside its first cache line", name, end)
		}
	}
	var ks kernelSlot
	if off := unsafe.Offsetof(ks.actor); off != 0 {
		t.Fatalf("the actor starts at byte %d of its slot, want 0", off)
	}
	if s := unsafe.Sizeof(ks); s%128 != 0 || s > 768 {
		t.Fatalf("kernelSlot is %d bytes, want whole 128-byte pairs and at most 768", s)
	}
	if s := unsafe.Sizeof(actorEntry{}); s != 64 {
		t.Fatalf("actorEntry is %d bytes, want 64", s)
	}
}

// TestLinkSlotLayout pins a stream's state: the words both ends follow on
// their slow paths and the monitor writes (the batch control, the
// asynchronous-signal cell) are one cache line to themselves, and the cold
// record — the registry entry and the LinkInfo — is packed. The ring's own
// lines are TestTelemetryLayout's.
func TestLinkSlotLayout(t *testing.T) {
	skipOff64(t)
	var ls linkSlot
	if s := unsafe.Sizeof(ls); s != 64 {
		t.Fatalf("linkSlot is %d bytes, want one cache line", s)
	}
	if end := unsafe.Offsetof(ls.async) + unsafe.Sizeof(ls.async); unsafe.Offsetof(ls.batch) != 0 || end > 64 {
		t.Fatalf("batch at %d, async ending at %d: want both in the line", unsafe.Offsetof(ls.batch), end)
	}
	if s := unsafe.Sizeof(linkRecord{}); s != 160 {
		t.Fatalf("linkRecord is %d bytes, want 160", s)
	}
}

// TestOnePortLambdaIsOneAllocation: a lambda kernel carries the ports it
// declares and no others. A one-port kernel is one allocation, no larger
// than the size class of a LambdaKernel, which holds one port inline; a
// two-port one is one allocation too, its second port following it.
func TestOnePortLambdaIsOneAllocation(t *testing.T) {
	if n := len(KernelBase{}.inline); n != 1 {
		t.Fatalf("KernelBase holds %d inline ports, want 1", n)
	}
	const n = 1000
	ks := make([]*LambdaKernel, n)
	objs, bytes := allocsDuring(func() {
		for i := range ks {
			ks[i] = NewLambda[int64](0, 1, nil)
		}
	})
	bound := (unsafe.Sizeof(LambdaKernel{}) + 63) &^ 63
	if objs != n || bytes/n > uint64(bound) {
		t.Fatalf("%d one-port lambdas: %d allocations of %d B each, want %d of at most %d B", n, objs, bytes/n, n, bound)
	}
	two := NewLambda[int64](1, 1, nil)
	if in, out := two.In("0"), two.Out("0"); in != &two.inline[0] ||
		uintptr(unsafe.Pointer(out)) != uintptr(unsafe.Pointer(two))+unsafe.Sizeof(LambdaKernel{}) {
		t.Fatal("a two-port lambda's second port does not follow the kernel in its allocation")
	}
}
