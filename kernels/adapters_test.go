package kernels

import (
	"reflect"
	"testing"

	"raftlib/raft"
)

// runPipe builds src -> mid -> sink and returns the collected output.
func runPipe[T any](t *testing.T, src raft.Kernel, mid raft.Kernel, opts ...raft.Option) []T {
	t.Helper()
	var out []T
	m := raft.NewMap()
	if _, err := m.Link(src, mid); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(mid, NewWriteEach(&out)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(opts...); err != nil {
		t.Fatal(err)
	}
	return out
}

func ints(n int64) *Generate[int64] {
	return NewGenerate(n, func(i int64) int64 { return i })
}

func TestFilter(t *testing.T) {
	got := runPipe[int64](t, ints(100), NewFilter(func(v int64) bool { return v%3 == 0 }))
	if len(got) != 34 {
		t.Fatalf("filtered %d elements, want 34", len(got))
	}
	for i, v := range got {
		if v != int64(3*i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestFilterReplicated(t *testing.T) {
	m := raft.NewMap()
	var out []int64
	f := NewFilter(func(v int64) bool { return v%2 == 0 })
	if _, err := m.Link(ints(10_000), f, raft.AsOutOfOrder()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(f, NewWriteEach(&out)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(raft.WithAutoReplicate(3)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 5000 {
		t.Fatalf("parallel filter passed %d, want 5000", len(out))
	}
}

func TestTransform(t *testing.T) {
	mid := NewTransform(func(v int64) float64 { return float64(v) / 2 })
	var out []float64
	m := raft.NewMap()
	if _, err := m.Link(ints(5), mid); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(mid, NewWriteEach(&out)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 1, 1.5, 2}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %v", out)
	}
}

func TestTransformReorderablePreservesOrder(t *testing.T) {
	mid := NewTransform(func(v int64) int64 { return v * 10 })
	var out []int64
	m := raft.NewMap()
	if _, err := m.Link(ints(5000), mid, raft.AsReorderable()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(mid, NewWriteEach(&out)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(raft.WithAutoReplicate(4)); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != int64(10*i) {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestTeeBroadcasts(t *testing.T) {
	m := raft.NewMap()
	tee := NewTee[int64](3)
	if _, err := m.Link(ints(100), tee); err != nil {
		t.Fatal(err)
	}
	outs := make([][]int64, 3)
	for i := 0; i < 3; i++ {
		if _, err := m.Link(tee, NewWriteEach(&outs[i]), raft.From(itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	for i, got := range outs {
		if len(got) != 100 {
			t.Fatalf("branch %d received %d elements", i, len(got))
		}
		for j, v := range got {
			if v != int64(j) {
				t.Fatalf("branch %d[%d] = %d", i, j, v)
			}
		}
	}
}

func TestTeeWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTee(0) must panic")
		}
	}()
	NewTee[int](0)
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 5: "5", 10: "10", 123: "123"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Fatalf("itoa(%d) = %q", in, got)
		}
	}
}

func TestSlidingWindowTumbling(t *testing.T) {
	// size == slide: non-overlapping (tumbling) windows.
	sums := NewSlidingWindow(4, 4, func(w []int64) int64 {
		var s int64
		for _, v := range w {
			s += v
		}
		return s
	})
	got := runPipe[int64](t, ints(12), sums)
	want := []int64{0 + 1 + 2 + 3, 4 + 5 + 6 + 7, 8 + 9 + 10 + 11}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSlidingWindowOverlapping(t *testing.T) {
	maxes := NewSlidingWindow(3, 1, func(w []int64) int64 {
		m := w[0]
		for _, v := range w[1:] {
			if v > m {
				m = v
			}
		}
		return m
	})
	got := runPipe[int64](t, ints(6), maxes)
	want := []int64{2, 3, 4, 5} // max of each [i, i+2]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSlidingWindowPartialTailDiscarded(t *testing.T) {
	counts := NewSlidingWindow(5, 5, func(w []int64) int64 { return int64(len(w)) })
	got := runPipe[int64](t, ints(13), counts) // 13 = 2 full windows + 3 leftover
	if !reflect.DeepEqual(got, []int64{5, 5}) {
		t.Fatalf("got %v", got)
	}
}

func TestSlidingWindowValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSlidingWindow(0, 1, func(w []int64) int64 { return 0 }) },
		func() { NewSlidingWindow(4, 0, func(w []int64) int64 { return 0 }) },
		func() { NewSlidingWindow(4, 5, func(w []int64) int64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid window params must panic")
				}
			}()
			fn()
		}()
	}
}
