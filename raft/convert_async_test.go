package raft

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestConvertedLinkNumericCast(t *testing.T) {
	m := NewMap()
	src := NewLambda[int32](0, 1, func(k *LambdaKernel) Status {
		for i := int32(0); i < 100; i++ {
			if err := Push(k.Out("0"), i); err != nil {
				return Stop
			}
		}
		return Stop
	})
	var got []int64
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		got = append(got, v)
		return Proceed
	})
	l, err := m.Link(src, sink, AllowConvert())
	if err != nil {
		t.Fatal(err)
	}
	if l.Src != src || l.Dst != sink {
		t.Fatal("synthetic link endpoints wrong")
	}
	rep, err := m.Exe()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("received %d values", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	// A converter kernel must appear in the report.
	found := false
	for _, k := range rep.Kernels {
		if strings.HasPrefix(k.Name, "convert") {
			found = true
		}
	}
	if !found {
		t.Fatal("no converter kernel in report")
	}
}

func TestConvertedLinkFloatToInt(t *testing.T) {
	m := NewMap()
	src := NewLambda[float64](0, 1, func(k *LambdaKernel) Status {
		for _, v := range []float64{1.9, 2.1, -3.7} {
			if err := Push(k.Out("0"), v); err != nil {
				return Stop
			}
		}
		return Stop
	})
	var got []int32
	sink := NewLambda[int32](1, 0, func(k *LambdaKernel) Status {
		v, err := Pop[int32](k.In("0"))
		if err != nil {
			return Stop
		}
		got = append(got, v)
		return Proceed
	})
	if _, err := m.Link(src, sink, AllowConvert()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, -3} // Go truncation semantics
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestConvertedLinkPreservesSignals(t *testing.T) {
	m := NewMap()
	src := NewLambda[int16](0, 1, func(k *LambdaKernel) Status {
		if err := PushSig(k.Out("0"), int16(7), SigUser); err != nil {
			return Stop
		}
		return Stop
	})
	var gotSig Signal
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		_, s, err := PopSig[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		gotSig = s
		return Proceed
	})
	if _, err := m.Link(src, sink, AllowConvert()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if gotSig != SigUser {
		t.Fatalf("signal lost through conversion: %v", gotSig)
	}
}

func TestMismatchWithoutAllowConvertStillErrors(t *testing.T) {
	m := NewMap()
	src := NewLambda[int32](0, 1, func(k *LambdaKernel) Status { return Stop })
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status { return Stop })
	if _, err := m.Link(src, sink); err == nil {
		t.Fatal("mismatch without AllowConvert must error")
	}
}

func TestConvertUnsupportedTypes(t *testing.T) {
	m := NewMap()
	src := NewLambda[string](0, 1, func(k *LambdaKernel) Status { return Stop })
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status { return Stop })
	if _, err := m.Link(src, sink, AllowConvert()); err == nil {
		t.Fatal("string->int64 conversion must error")
	}
}

func TestAsyncSignalOvertakesBufferedData(t *testing.T) {
	// The producer fills the queue, then posts an async signal; the
	// consumer must see it before consuming the buffered elements. The
	// sink's first invocation waits for the post, so it cannot pop all 32
	// elements before the signal lands.
	m := NewMap()
	sawBefore := false
	consumed := 0
	posted := make(chan struct{})
	var srcOut *Port
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		srcOut = k.Out("0")
		for i := int64(0); i < 32; i++ {
			if err := Push(srcOut, i); err != nil {
				return Stop
			}
		}
		srcOut.SendAsync(SigUser)
		close(posted)
		return Stop
	})
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		<-posted
		in := k.In("0")
		if s, ok := in.RecvAsync(); ok && s == SigUser && consumed < 32 && in.Len() > 0 {
			sawBefore = true
		}
		if _, err := Pop[int64](in); err != nil {
			return Stop
		}
		consumed++
		return Proceed
	})
	if _, err := m.Link(src, sink, Cap(64)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if consumed != 32 {
		t.Fatalf("consumed %d", consumed)
	}
	if !sawBefore {
		t.Fatal("async signal was not visible ahead of buffered data")
	}
}

func TestAsyncSignalPeekAndConsume(t *testing.T) {
	m := NewMap()
	var inspected []Signal
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		k.Out("0").SendAsync(SigTerm)
		_ = Push(k.Out("0"), int64(1))
		return Stop
	})
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		in := k.In("0")
		if _, err := Pop[int64](in); err != nil {
			return Stop
		}
		inspected = append(inspected, in.PeekAsync())
		if s, ok := in.RecvAsync(); ok {
			inspected = append(inspected, s)
		}
		inspected = append(inspected, in.PeekAsync()) // consumed: none
		return Proceed
	})
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if len(inspected) != 3 || inspected[0] != SigTerm || inspected[1] != SigTerm || inspected[2] != SigNone {
		t.Fatalf("inspected = %v", inspected)
	}
}

func TestRecvAsyncOnUnboundPort(t *testing.T) {
	k := NewLambda[int64](1, 0, func(k *LambdaKernel) Status { return Stop })
	if _, ok := k.In("0").RecvAsync(); ok {
		t.Fatal("unbound port cannot hold async signals")
	}
	if k.In("0").PeekAsync() != SigNone {
		t.Fatal("unbound PeekAsync must be none")
	}
}

func TestRaiseAbortsWholeApplication(t *testing.T) {
	m := NewMap()
	// Infinite source: only the exception can stop this app.
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		if err := Push(k.Out("0"), int64(1)); err != nil {
			return Stop
		}
		return Proceed
	})
	n := 0
	var mid *LambdaKernel
	mid = NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		v, err := Pop[int64](k.In("0"))
		if err != nil {
			return Stop
		}
		n++
		if n == 1000 {
			mid.Raise(fmt.Errorf("poison value %d", v))
		}
		if err := Push(k.Out("0"), v); err != nil {
			return Stop
		}
		return Proceed
	})
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		if _, err := Pop[int64](k.In("0")); err != nil {
			return Stop
		}
		return Proceed
	})
	if _, err := m.Link(src, mid); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(mid, sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe()
	if err == nil {
		t.Fatal("raised exception must surface from Exe")
	}
	if !strings.Contains(err.Error(), "poison value") {
		t.Fatalf("err = %v", err)
	}
}

func TestRaiseFirstErrorWins(t *testing.T) {
	m := NewMap()
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		k.Raise(errors.New("first"))
		k.Raise(errors.New("second"))
		return Stop
	})
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		if _, err := Pop[int64](k.In("0")); err != nil {
			return Stop
		}
		return Proceed
	})
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe()
	if err == nil || !strings.Contains(err.Error(), "first") || strings.Contains(err.Error(), "second") {
		t.Fatalf("err = %v", err)
	}
}

func TestRaiseNilIsNoop(t *testing.T) {
	m := NewMap()
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		k.Raise(nil)
		return Stop
	})
	sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
		if _, err := Pop[int64](k.In("0")); err != nil {
			return Stop
		}
		return Proceed
	})
	if _, err := m.Link(src, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatalf("nil raise must not fail the app: %v", err)
	}
}

// failingInit is a source whose Init fails.
type failingInit struct{ KernelBase }

func (*failingInit) Init() error { return errors.New("no input file") }
func (*failingInit) Run() Status { return Stop }

// TestFailedClosesWhenTheExecutionFails: a kernel waiting on something
// other than its ports learns through Failed that its run is lost —
// whether another kernel raised, panicked or failed its Init, under both
// schedulers — and a clean run leaves the channel open.
func TestFailedClosesWhenTheExecutionFails(t *testing.T) {
	failers := map[string]func() Kernel{
		"raise": func() Kernel {
			return NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
				k.Raise(errors.New("raised"))
				return Stop
			})
		},
		"panic": func() Kernel {
			return NewLambda[int64](0, 1, func(*LambdaKernel) Status { panic("kernel bug") })
		},
		"init": func() Kernel {
			k := &failingInit{}
			AddOutput[int64](k, "out")
			return k
		},
		"none": func() Kernel { return newGen(10) },
	}
	for name, failer := range failers {
		for _, sched := range []Option{WithWorkStealing(2), func(*Config) {}} {
			m := NewMap()
			var failed <-chan struct{}
			woke := false
			waiter := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
				failed = k.Failed()
				if name != "none" {
					select {
					case <-failed:
						woke = true
					case <-time.After(5 * time.Second):
					}
				}
				return Stop
			})
			m.MustLink(waiter, newCollect())
			m.MustLink(failer(), newCollect())
			_, err := m.Exe(sched)
			select {
			case <-failed:
				if name == "none" {
					t.Fatalf("%s: Failed closed on a clean run", name)
				}
			default:
				if name != "none" {
					t.Fatalf("%s: Failed still open after Exe = %v", name, err)
				}
			}
			if (err != nil) != (name != "none") || woke != (name != "none") {
				t.Fatalf("%s: Exe = %v, waiter woken = %v", name, err, woke)
			}
		}
	}
}
