package sparklet

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"raftlib/internal/corpus"
)

// rddOf splits data into parts partitions, as sc.parallelize would.
func rddOf[T any](ctx *Context, data []T, parts int) *RDD[T] {
	return &RDD[T]{
		ctx:   ctx,
		parts: parts,
		compute: func(p int) []T {
			return data[p*len(data)/parts : (p+1)*len(data)/parts]
		},
	}
}

// collect runs one stage over r and concatenates its partitions.
func collect[T any](r *RDD[T]) ([]T, error) {
	parts, err := runStage(r)
	if err != nil {
		return nil, err
	}
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

func TestReduceSumsAcrossPartitions(t *testing.T) {
	ctx := NewContext(4)
	data := make([]int64, 101)
	for i := range data {
		data[i] = int64(i)
	}
	sum, err := Reduce(rddOf(ctx, data, 8), func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 5050 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestReduceEmptyErrors(t *testing.T) {
	ctx := NewContext(2)
	if _, err := Reduce(rddOf(ctx, []int(nil), 2), func(a, b int) int { return a + b }); err == nil {
		t.Fatal("reduce of empty RDD must error")
	}
}

func TestTextFileLinesRoundTrip(t *testing.T) {
	ctx := NewContext(4)
	data := []byte("alpha\nbeta\ngamma\ndelta\nepsilon")
	lines, err := collect(TextFile(ctx, data, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("lines = %v", lines)
	}
}

func TestTextFilePartitionBoundariesLoseNothing(t *testing.T) {
	f := func(seed uint32, parts uint8) bool {
		ctx := NewContext(4)
		data := corpus.Generate(corpus.Spec{Bytes: 10_000, Seed: uint64(seed) + 1})
		p := int(parts%8) + 1
		lines, err := collect(TextFile(ctx, data, p))
		if err != nil {
			return false
		}
		joined := []byte{}
		for i, l := range lines {
			joined = append(joined, l...)
			if i < len(lines)-1 {
				joined = append(joined, '\n')
			}
		}
		// Allow for trailing newline normalization.
		return bytes.Equal(bytes.TrimRight(joined, "\n"), bytes.TrimRight(data, "\n"))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTextSearchBMCounts(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 1 << 20, Seed: 99})
	want := int64(bytes.Count(data, []byte(corpus.DefaultPattern)))
	for _, par := range []int{1, 2, 4} {
		ctx := NewContext(par)
		res, err := TextSearchBM(ctx, data, []byte(corpus.DefaultPattern))
		if err != nil {
			t.Fatal(err)
		}
		if res.Hits != want {
			t.Fatalf("parallelism %d: hits = %d, want %d", par, res.Hits, want)
		}
		if res.Throughput(len(data)) <= 0 {
			t.Fatal("no throughput")
		}
	}
}

func TestTextSearchBMBadPattern(t *testing.T) {
	if _, err := TextSearchBM(NewContext(1), []byte("x"), nil); err == nil {
		t.Fatal("empty pattern must error")
	}
}

func TestNewContextClamp(t *testing.T) {
	if NewContext(0).Parallelism != 1 {
		t.Fatal("parallelism must clamp to 1")
	}
}

func TestSerializationFailureSurfaces(t *testing.T) {
	rdd := rddOf(NewContext(1), []func(){func() {}}, 1) // gob cannot encode funcs
	if _, err := collect(rdd); err == nil {
		t.Fatal("unencodable task result must error")
	}
}
