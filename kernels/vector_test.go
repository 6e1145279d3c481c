package kernels

import (
	"testing"

	"raftlib/raft"
)

func TestMapBatch(t *testing.T) {
	got := runPipe[int64](t, ints(1000), NewMapBatch(func(vals []int64) {
		for i := range vals {
			vals[i] *= 2
		}
	}))
	if len(got) != 1000 {
		t.Fatalf("mapped %d elements, want 1000", len(got))
	}
	for i, v := range got {
		if v != int64(2*i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

func TestFilterBatch(t *testing.T) {
	got := runPipe[int64](t, ints(100), NewFilterBatch(func(v int64) bool { return v%3 == 0 }))
	if len(got) != 34 {
		t.Fatalf("filtered %d elements, want 34", len(got))
	}
	for i, v := range got {
		if v != int64(3*i) {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// TestFilterBatchDropsEverything: a predicate that never passes still
// terminates cleanly (each Run borrows, compacts to zero, releases).
func TestFilterBatchDropsEverything(t *testing.T) {
	got := runPipe[int64](t, ints(500), NewFilterBatch(func(int64) bool { return false }))
	if len(got) != 0 {
		t.Fatalf("passed %d elements, want 0", len(got))
	}
}

func TestMapBatchReplicated(t *testing.T) {
	m := raft.NewMap()
	var out []int64
	k := NewMapBatch(func(vals []int64) {
		for i := range vals {
			vals[i]++
		}
	})
	if _, err := m.Link(ints(10_000), k, raft.AsOutOfOrder()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(k, NewWriteEach(&out)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(raft.WithAutoReplicate(3)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 10_000 {
		t.Fatalf("parallel map emitted %d, want 10000", len(out))
	}
	var sum int64
	for _, v := range out {
		sum += v
	}
	const want = int64(10_000) * 9_999 / 2 // sum(0..9999) + 10000*1
	if sum != want+10_000 {
		t.Fatalf("sum = %d, want %d", sum, want+10_000)
	}
}

func TestFilterBatchReplicated(t *testing.T) {
	m := raft.NewMap()
	var out []int64
	f := NewFilterBatch(func(v int64) bool { return v%2 == 0 })
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
