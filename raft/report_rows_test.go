package raft

import (
	"fmt"
	"testing"
	"time"
)

// linkRow is the deterministic part of a LinkReport row.
type linkRow struct {
	name         string
	finalCap     int
	pushes, pops uint64
	dropped      uint64
	joined, left bool
}

func rowOf(lr LinkReport) linkRow {
	return linkRow{lr.Name, lr.FinalCap, lr.Pushes, lr.Pops, lr.Dropped, lr.JoinedAt > 0, lr.LeftAt > 0}
}

// checkKernelRows requires the Report's kernel rows to carry exactly the
// given names, in order, with no restart and no lifecycle stamp.
func checkKernelRows(t *testing.T, rep *Report, names []string) {
	t.Helper()
	if len(rep.Kernels) != len(names) {
		t.Fatalf("%d kernel rows, want %d", len(rep.Kernels), len(names))
	}
	for i, kr := range rep.Kernels {
		if kr.Name != names[i] || kr.Restarts != 0 || kr.JoinedAt != 0 || kr.LeftAt != 0 {
			t.Fatalf("kernel row %d = %q restarts %d joined %v left %v; want %q, 0, 0, 0",
				i, kr.Name, kr.Restarts, kr.JoinedAt, kr.LeftAt, names[i])
		}
	}
}

func checkLinkRows(t *testing.T, rep *Report, want []linkRow) {
	t.Helper()
	if len(rep.Links) != len(want) {
		t.Fatalf("%d link rows, want %d", len(rep.Links), len(want))
	}
	for i, lr := range rep.Links {
		if got := rowOf(lr); got != want[i] {
			t.Fatalf("link row %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestReportRowsThreeStage pins the rows of a fixed three-stage pipeline:
// one kernel row per kernel and one link row per stream, in the order the
// map was built, with their names, capacities and exact counts.
func TestReportRowsThreeStage(t *testing.T) {
	const n = 1000
	for _, sc := range bothSchedulers {
		t.Run(sc.name, func(t *testing.T) {
			m := NewMap()
			gen, work := newGen(n), newWork()
			m.MustLink(gen, work, Cap(16), MaxCap(16))
			m.MustLink(work, newCollect(), Cap(16), MaxCap(16))
			rep, err := m.Exe(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			checkKernelRows(t, rep, []string{"genKernel#0", "workKernel#1", "collectKernel#2"})
			checkLinkRows(t, rep, []linkRow{
				{name: "genKernel#0.out->workKernel#1.in", finalCap: 16, pushes: n, pops: n},
				{name: "workKernel#1.out->collectKernel#2.in", finalCap: 16, pushes: n, pops: n},
			})
		})
	}
}

// TestReportRowsManyPairs pins the rows of 1,000 independent gen -> sink
// pairs: pair p's two kernels are rows 2p and 2p+1, its stream row p.
func TestReportRowsManyPairs(t *testing.T) {
	const pairs, items = 1000, 8
	for _, sc := range bothSchedulers {
		t.Run(sc.name, func(t *testing.T) {
			m := NewMap()
			var names []string
			var links []linkRow
			for p := 0; p < pairs; p++ {
				sent := 0
				gen := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
					if sent == items {
						return Stop
					}
					if err := Push(k.Out("0"), int64(sent)); err != nil {
						return Stop
					}
					sent++
					return Proceed
				})
				sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
					if _, err := Pop[int64](k.In("0")); err != nil {
						return Stop
					}
					return Proceed
				})
				g, s := fmt.Sprintf("g%d", p), fmt.Sprintf("s%d", p)
				gen.SetName(g)
				sink.SetName(s)
				m.MustLink(gen, sink, Cap(4), MaxCap(4))
				names = append(names, g, s)
				links = append(links, linkRow{name: g + ".0->" + s + ".0", finalCap: 4, pushes: items, pops: items})
			}
			rep, err := m.Exe(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			checkKernelRows(t, rep, names)
			checkLinkRows(t, rep, links)
		})
	}
}

// TestReportRowsAfterRewrite: a kernel and two links a rewrite added are
// listed after epoch 0's rows, in the order the transaction staged them,
// with a join stamp; the link it removed keeps its row, with a departure
// stamp. Every element crosses exactly one of the two paths.
func TestReportRowsAfterRewrite(t *testing.T) {
	const n = 5000
	for _, sc := range bothSchedulers {
		t.Run(sc.name, func(t *testing.T) {
			m := NewMap()
			gen := newGen(n)
			sink := newPacedCollect(time.Millisecond)
			l0 := m.MustLink(gen, sink, Cap(16), MaxCap(16))
			ex, err := m.ExeAsync(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "pre-splice traffic", func() bool { return sink.count() >= 500 })
			tx := ex.Rewriter().Begin()
			work := newWork()
			if err := tx.RemoveLink(l0); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Link(gen, work, Cap(16), MaxCap(16)); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Link(work, sink, Cap(16), MaxCap(16)); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			rep, err := ex.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Kernels) != 3 || rep.Kernels[2].Name != "workKernel#2" || rep.Kernels[2].JoinedAt <= 0 || rep.Kernels[2].LeftAt != 0 {
				t.Fatalf("kernel rows %+v: want the spliced workKernel#2 last, joined and not left", rep.Kernels)
			}
			checkKernelRows(t, &Report{Kernels: rep.Kernels[:2]}, []string{"genKernel#0", "pacedCollect#1"})
			before, after := rep.Links[0].Pushes, rep.Links[1].Pushes
			if before+after != n || before == 0 || after == 0 {
				t.Fatalf("%d elements before the splice and %d after, want > 0 each and %d in all", before, after, n)
			}
			checkLinkRows(t, rep, []linkRow{
				{name: "genKernel#0.out->pacedCollect#1.in", finalCap: 16, pushes: before, pops: before, left: true},
				{name: "genKernel#0.out->workKernel#2.in", finalCap: 16, pushes: after, pops: after, joined: true},
				{name: "workKernel#2.out->pacedCollect#1.in", finalCap: 16, pushes: after, pops: after, joined: true},
			})
		})
	}
}
