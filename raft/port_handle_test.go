package raft

import (
	"errors"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"raftlib/internal/ringbuffer"
)

// boundRelay returns a 1-in/1-out int64 lambda kernel whose two ports share
// one freshly allocated default ring, the way Exe binds a link's endpoints.
func boundRelay() (*LambdaKernel, *ringbuffer.Ring[int64]) {
	k := NewLambda[int64](1, 1, nil)
	r := ringbuffer.NewRing[int64](64)
	k.In("0").bind(r, nil)
	k.Out("0").bind(r, nil)
	return k, r
}

// TestPortFastPathKeepsMisuseErrors pins the misuse taxonomy around the
// concrete-type assertion of ringOf/retired and the scan in In/Out:
// a correct access first, then the wrong one, must still be diagnosed.
func TestPortFastPathKeepsMisuseErrors(t *testing.T) {
	k, _ := boundRelay()
	if err := Push(k.Out("0"), int64(7)); err != nil {
		t.Fatal(err)
	}
	if v, err := Pop[int64](k.In("0")); err != nil || v != 7 {
		t.Fatalf("Pop = %d, %v", v, err)
	}
	wrongType := map[string]func(){
		"Pop":     func() { _, _ = Pop[string](k.In("0")) },
		"Push":    func() { _ = Push(k.Out("0"), "x") },
		"PopN":    func() { _, _ = PopN(k.In("0"), make([]string, 1)) },
		"PushN":   func() { _ = PushN(k.Out("0"), []string{"x"}) },
		"PopView": func() { _, _ = PopView[string](k.In("0"), 1) },
		"AcquireWriteView": func() {
			_, _ = AcquireWriteView[string](k.Out("0"), 1)
		},
	}
	for name, fn := range wrongType {
		if err := recoverErr(fn); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("%s with the wrong element type after a correct access: panic %v, want ErrTypeMismatch", name, err)
		}
	}

	unbound := NewLambda[int64](1, 1, nil)
	for name, fn := range map[string]func(){
		"Pop":     func() { _, _ = Pop[int64](unbound.In("0")) },
		"PushN":   func() { _ = PushN(unbound.Out("0"), []int64{1}) },
		"PopView": func() { _, _ = PopView[int64](unbound.In("0"), 1) },
	} {
		if err := recoverErr(fn); !errors.Is(err, ErrPortUnbound) {
			t.Errorf("%s on an unbound port: panic %v, want ErrPortUnbound", name, err)
		}
	}

	// A hit on one name must not answer for another, on narrow kernels
	// (scanned) and wide ones (hashed) alike.
	for _, width := range []int{2, portScanMax + 4} {
		w := NewLambda[int64](width, width, nil)
		last := strconv.Itoa(width - 1)
		if w.In(last).Name() != last || w.Out("0").Name() != "0" || w.In("0").Dir() != In || w.Out(last).Dir() != Out {
			t.Fatalf("width %d: In/Out resolved the wrong port", width)
		}
		if err := recoverErr(func() { w.In("nope") }); !errors.Is(err, ErrPortNotFound) {
			t.Errorf("width %d: In(nope) after a hit: panic %v, want ErrPortNotFound", width, err)
		}
		if err := recoverErr(func() { w.Out(strconv.Itoa(width)) }); !errors.Is(err, ErrPortNotFound) {
			t.Errorf("width %d: Out(%d) after a hit: panic %v, want ErrPortNotFound", width, width, err)
		}
	}
}

// TestSlotNamesAreInterned checks what the numbered-port lookup relies on:
// the name a lambda kernel's port holds and the literal a kernel passes to
// In or Out are one string in memory, so the comparison in lookupPort
// returns at its pointer check.
func TestSlotNamesAreInterned(t *testing.T) {
	k := NewLambda[int64](2, 2, nil)
	for lit, p := range map[string]*Port{"0": k.In("0"), "1": k.Out("1")} {
		if unsafe.StringData(p.Name()) != unsafe.StringData(lit) {
			t.Errorf("port %q does not share the bytes of the literal %q", p.Name(), lit)
		}
	}
	if got := slotName(12); got != "12" {
		t.Fatalf("slotName(12) = %q", got)
	}
}

// TestPortDeclarationIsInline checks that the first two ports live in the
// kernel whatever their directions — declaring them allocates nothing
// beyond the kernel — and that a kernel with more ports than that keeps
// every list in declaration order.
func TestPortDeclarationIsInline(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {1, 1}, {2, 0}, {0, 2}} {
		allocs := testing.AllocsPerRun(100, func() { NewLambda[int64](shape[0], shape[1], nil) })
		if allocs != 1 {
			t.Errorf("NewLambda(%d in, %d out): %.0f allocs, want 1 (the kernel)", shape[0], shape[1], allocs)
		}
	}
	for _, dirs := range []string{"io", "oi", "ii", "oo", "ioo", "oii", "iioo", "oioi", "ooooi"} {
		k := &LambdaKernel{}
		var ins, outs []string
		for i, d := range dirs {
			name := "p" + strconv.Itoa(i)
			if d == 'i' {
				AddInput[int](k, name)
				ins = append(ins, name)
			} else {
				AddOutput[int](k, name)
				outs = append(outs, name)
			}
		}
		if !slices.Equal(k.InNames(), ins) || !slices.Equal(k.OutNames(), outs) {
			t.Errorf("%s: ins %v outs %v, want %v and %v", dirs, k.InNames(), k.OutNames(), ins, outs)
		}
		for i := range k.inline {
			if p := &k.inline[i]; i < len(dirs) && p.owner != &k.KernelBase {
				t.Errorf("%s: inline slot %d unused", dirs, i)
			}
		}
	}
}

// BenchmarkKernelPortLookup is the per-invocation cost of a lambda kernel
// finding its ports by name, In("0") and Out("1"): a scan of two ports that
// ends at a pointer-equal name. It must not allocate.
func BenchmarkKernelPortLookup(b *testing.B) {
	k := NewLambda[int64](2, 2, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		portSinks[0], portSinks[1] = k.In("0"), k.Out("1")
	}
}

var portSinks [2]*Port

// BenchmarkPortPushPop1G is the port-accessor rung in isolation: one
// goroutine, lambda-style name lookup plus typed Push and Pop on a bound
// default ring, no actor and no scheduler. Compare with
// ringbuffer.BenchmarkRingPushPop for the accessors' own cost.
func BenchmarkPortPushPop1G(b *testing.B) {
	k, _ := boundRelay()
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		if err := Push(k.Out("0"), int64(i)); err != nil {
			b.Fatal(err)
		}
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	benchSink = sum
}

var benchSink int64
