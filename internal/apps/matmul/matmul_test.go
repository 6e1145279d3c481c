package matmul

import (
	"math"
	"testing"
)

func matricesEqual(a, b *Matrix, tol float64) bool {
	for i := 0; i < Dim; i++ {
		for j := 0; j < Dim; j++ {
			if math.Abs(a[i][j]-b[i][j]) > tol {
				return false
			}
		}
	}
	return true
}

func TestNewRandomDeterministic(t *testing.T) {
	a := NewRandom(5)
	b := NewRandom(5)
	if !matricesEqual(a, b, 0) {
		t.Fatal("same seed produced different matrices")
	}
	c := NewRandom(6)
	if matricesEqual(a, c, 0) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestStreamingMatchesReference(t *testing.T) {
	a, b := NewRandom(1), NewRandom(2)
	want := Reference(a, b)
	res, err := Run(a, b, Config{QueueCapBytes: 16 * RowBytes})
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(res.C, want, 1e-9) {
		t.Fatal("streaming result differs from reference")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestStreamingParallelMatchesReference(t *testing.T) {
	a, b := NewRandom(3), NewRandom(4)
	want := Reference(a, b)
	res, err := Run(a, b, Config{QueueCapBytes: 64 * RowBytes, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(res.C, want, 1e-9) {
		t.Fatal("parallel streaming result differs from reference")
	}
	if len(res.Report.Groups) != 1 {
		t.Fatalf("expected replicated multiply group, got %+v", res.Report.Groups)
	}
}

func TestTinyQueueStillCorrect(t *testing.T) {
	a, b := NewRandom(7), NewRandom(8)
	want := Reference(a, b)
	res, err := Run(a, b, Config{QueueCapBytes: 1}) // clamps to one element
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(res.C, want, 1e-9) {
		t.Fatal("tiny-queue result differs from reference")
	}
	// Capacity must have stayed pinned (MaxCap == Cap, no dynamic resize).
	for _, l := range res.Report.Links {
		if l.FinalCap != 1 {
			t.Fatalf("link %s final cap = %d, want pinned 1", l.Name, l.FinalCap)
		}
	}
}

func TestDynamicResizeGrowsTinyQueue(t *testing.T) {
	a, b := NewRandom(9), NewRandom(10)
	res, err := Run(a, b, Config{QueueCapBytes: 1, DynamicResize: true})
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for _, l := range res.Report.Links {
		if l.Grows > 0 {
			grew = true
		}
	}
	if !grew {
		t.Skip("monitor did not fire on this machine's timing; non-deterministic")
	}
}

func TestQueueCapacityConversion(t *testing.T) {
	a, b := NewRandom(11), NewRandom(12)
	res, err := Run(a, b, Config{QueueCapBytes: 8 * RowBytes})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Report.Links {
		if l.FinalCap != 8 {
			t.Fatalf("link %s cap = %d elements, want 8", l.Name, l.FinalCap)
		}
	}
}
