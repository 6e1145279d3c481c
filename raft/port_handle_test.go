package raft

import (
	"errors"
	"strconv"
	"testing"

	"raftlib/internal/ringbuffer"
)

// boundRelay returns a 1-in/1-out int64 lambda kernel whose two ports share
// one freshly allocated default ring, the way Exe binds a link's endpoints.
func boundRelay() (*LambdaKernel, *ringbuffer.Ring[int64]) {
	k := NewLambda[int64](1, 1, nil)
	r := ringbuffer.NewRing[int64](64)
	k.In("0").bind(r, r, nil)
	k.Out("0").bind(r, r, nil)
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
