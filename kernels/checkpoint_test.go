package kernels

import (
	"testing"
	"time"

	"raftlib/raft"
)

// The library's stateful kernels must satisfy raft.Checkpointable.
var (
	_ raft.Checkpointable = (*Generate[int])(nil)
	_ raft.Checkpointable = (*ReadEach[int])(nil)
	_ raft.Checkpointable = (*Reduce[int])(nil)
)

func TestKernelSnapshotRoundtrips(t *testing.T) {
	g := NewGenerate(100, func(i int64) int64 { return i })
	g.next = 42
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGenerate(100, func(i int64) int64 { return i })
	if err := g2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if g2.next != 42 {
		t.Fatalf("Generate.next = %d, want 42", g2.next)
	}

	re := NewReadEach([]string{"a", "b", "c"})
	re.i = 2
	snap, err = re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re2 := NewReadEach([]string{"a", "b", "c"})
	if err := re2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if re2.i != 2 {
		t.Fatalf("ReadEach.i = %d, want 2", re2.i)
	}

	type pair struct{ A, B int }
	var out pair
	rd := NewReduce(func(acc, v pair) pair { return pair{acc.A + v.A, acc.B + v.B} }, pair{}, &out)
	rd.acc = pair{A: 7, B: 9}
	snap, err = rd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rd2 := NewReduce(func(acc, v pair) pair { return acc }, pair{}, nil)
	if err := rd2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if rd2.acc != (pair{7, 9}) {
		t.Fatalf("Reduce.acc = %+v, want {7 9}", rd2.acc)
	}
}

func TestSupervisedReduceSurvivesInjectedKill(t *testing.T) {
	const n = 200
	var sum int64
	m := raft.NewMap()
	gen := NewGenerate(n, func(i int64) int64 { return i + 1 })
	red := NewReduce(func(acc, v int64) int64 { return acc + v }, 0, &sum)
	if _, err := m.Link(gen, red); err != nil {
		t.Fatal(err)
	}

	inj := raft.NewFaultInjector()
	inj.KillKernel("reduce", 50)
	inj.KillKernel("generate", 120)

	if _, err := m.Exe(
		raft.WithSupervision(raft.SupervisionPolicy{InitialBackoff: time.Microsecond}),
		raft.WithCheckpointStore(raft.NewMemCheckpointStore()),
		raft.WithFaultInjection(inj),
	); err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n + 1) / 2); sum != want {
		t.Fatalf("sum = %d, want %d (kills must be lossless)", sum, want)
	}
	if inj.Fired("kill") != 2 {
		t.Fatalf("kills fired = %d, want 2", inj.Fired("kill"))
	}
}
