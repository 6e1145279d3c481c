package kernels

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"raftlib/internal/corpus"
	"raftlib/raft"
)

func TestGeneratePrint(t *testing.T) {
	var buf bytes.Buffer
	m := raft.NewMap()
	gen := NewGenerate(5, func(i int64) int64 { return i * i })
	pr := NewPrint[int64](&buf, '\n')
	if _, err := m.Link(gen, pr); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	want := "0\n1\n4\n9\n16\n"
	if buf.String() != want {
		t.Fatalf("printed %q, want %q", buf.String(), want)
	}
}

func TestReadEachWriteEach(t *testing.T) {
	// The paper's Fig. 5: container -> read_each -> write_each -> container.
	src := make([]uint32, 1000)
	for i := range src {
		src[i] = uint32(i)
	}
	var dst []uint32
	m := raft.NewMap()
	if _, err := m.Link(NewReadEach(src), NewWriteEach(&dst)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("copied %d elements, mismatch (got %v...)", len(dst), dst[:min(5, len(dst))])
	}
}

func TestReadEachEmptySlice(t *testing.T) {
	var dst []int
	m := raft.NewMap()
	if _, err := m.Link(NewReadEach[int](nil), NewWriteEach(&dst)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if len(dst) != 0 {
		t.Fatalf("dst = %v, want empty", dst)
	}
}

func TestForEachReduce(t *testing.T) {
	// The paper's Fig. 6: for_each(arr) -> kernel -> reduce(val).
	const n = 10_000
	arr := make([]int, n)
	for i := range arr {
		arr[i] = i
	}
	square := raft.NewLambdaIO[int, int](1, 1, func(k *raft.LambdaKernel) raft.Status {
		v, err := raft.Pop[int](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		if err := raft.Push(k.Out("0"), v*2); err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	var val int
	m := raft.NewMap()
	if _, err := m.Link(NewForEach(arr), square); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(square, NewReduce(func(a, v int) int { return a + v }, 0, &val)); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe()
	if err != nil {
		t.Fatal(err)
	}
	want := n * (n - 1) // 2 * sum(0..n-1)
	if val != want {
		t.Fatalf("reduced %d, want %d", val, want)
	}
	// The for_each source must be virtual: zero scheduled runs.
	for _, k := range rep.Kernels {
		if strings.HasPrefix(k.Name, "for_each") && k.Runs != 0 {
			t.Fatalf("for_each ran %d times; must be momentary", k.Runs)
		}
	}
}

// TestForEachZeroCopyWindow drains a for_each stream through each bulk
// accessor — the provider's slice-backed ring is an ordinary stream to all
// of them. PeekRange and PopView must hand out the caller's array itself.
func TestForEachZeroCopyWindow(t *testing.T) {
	arr := []byte("hello zero copy world")
	// Each drain consumes what it can in one call, returning the bytes it
	// saw and whether they aliased arr.
	drains := map[string]func(p *raft.Port) ([]byte, bool, error){
		"PeekRange": func(p *raft.Port) ([]byte, bool, error) {
			w, err := raft.PeekRange[byte](p, len(arr))
			alias := len(w) == len(arr) && &w[0] == &arr[0]
			got := append([]byte(nil), w...)
			raft.Recycle[byte](p, len(w))
			return got, alias, err
		},
		"PopN": func(p *raft.Port) ([]byte, bool, error) {
			buf := make([]byte, 5)
			n, err := raft.PopN(p, buf)
			return buf[:n], false, err
		},
		"PopView": func(p *raft.Port) ([]byte, bool, error) {
			v, err := raft.PopView[byte](p, len(arr))
			if v.Len() == 0 {
				return nil, false, err
			}
			alias := &v.Vals[0] == &arr[0]
			got := append(append([]byte(nil), v.Vals...), v.Vals2...)
			raft.ReleaseView[byte](p, v.Len())
			return got, alias, err
		},
	}
	for name, drain := range drains {
		t.Run(name, func(t *testing.T) {
			var got []byte
			var aliased bool
			consumer := raft.NewLambdaIO[byte, int](1, 0, func(k *raft.LambdaKernel) raft.Status {
				b, alias, err := drain(k.In("0"))
				got = append(got, b...)
				aliased = aliased || alias
				if err != nil {
					return raft.Stop
				}
				return raft.Proceed
			})
			m := raft.NewMap()
			if _, err := m.Link(NewForEach(arr), consumer); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Exe(); err != nil {
				t.Fatal(err)
			}
			if string(got) != string(arr) {
				t.Fatalf("drained %q, want %q", got, arr)
			}
			if name != "PopN" && !aliased {
				t.Fatalf("%s did not alias the for_each source array", name)
			}
		})
	}
}

func TestBytesReaderChunksCoverCorpus(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 100_000, Seed: 3})
	var got []byte
	sink := raft.NewLambdaIO[Chunk, int](1, 0, func(k *raft.LambdaKernel) raft.Status {
		c, err := raft.Pop[Chunk](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		got = append(got, c.Data[:c.Valid]...)
		return raft.Proceed
	})
	m := raft.NewMap()
	if _, err := m.Link(NewBytesReader(data, 7_777, 4), sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("valid regions reassemble %d bytes, want %d identical", len(got), len(data))
	}
}

func TestBytesReaderZeroCopy(t *testing.T) {
	data := []byte("0123456789abcdef")
	var firstChunk Chunk
	seen := false
	sink := raft.NewLambdaIO[Chunk, int](1, 0, func(k *raft.LambdaKernel) raft.Status {
		c, err := raft.Pop[Chunk](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		if !seen {
			firstChunk, seen = c, true
		}
		return raft.Proceed
	})
	m := raft.NewMap()
	if _, err := m.Link(NewBytesReader(data, 8, 2), sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if !seen || &firstChunk.Data[0] != &data[0] {
		t.Fatal("chunk data must alias the source buffer")
	}
	if firstChunk.Valid != 8 || len(firstChunk.Data) != 10 {
		t.Fatalf("chunk = valid %d, len %d; want 8, 10", firstChunk.Valid, len(firstChunk.Data))
	}
}

func TestFileReader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.txt")
	data := corpus.Generate(corpus.Spec{Bytes: 50_000, Seed: 8})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var total int64
	sink := raft.NewLambdaIO[Chunk, int](1, 0, func(k *raft.LambdaKernel) raft.Status {
		c, err := raft.Pop[Chunk](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		total += int64(c.Valid)
		return raft.Proceed
	})
	m := raft.NewMap()
	if _, err := m.Link(NewFileReader(path, 9_999, 7), sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if total != int64(len(data)) {
		t.Fatalf("streamed %d valid bytes, want %d", total, len(data))
	}
}

func TestFileReaderMissingFile(t *testing.T) {
	m := raft.NewMap()
	sink := raft.NewLambdaIO[Chunk, int](1, 0, func(k *raft.LambdaKernel) raft.Status {
		_, err := raft.Pop[Chunk](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	if _, err := m.Link(NewFileReader("/nonexistent/corpus", 0, 0), sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err == nil {
		t.Fatal("Exe must report the Init failure")
	}
}

func TestSearchKernelFindsAllHits(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 1 << 20, Seed: 21})
	pattern := []byte(corpus.DefaultPattern)
	wantPositions := naivePositions(data, pattern)

	for _, algo := range []string{"ahocorasick", "horspool", "boyermoore"} {
		var hits []int64
		m := raft.NewMap()
		if _, err := m.Link(NewBytesReader(data, 64<<10, len(pattern)-1), mustSearch(t, algo, pattern)); err != nil {
			t.Fatal(err)
		}
		srch := m.Kernels()[1]
		if _, err := m.Link(srch, NewWriteEach(&hits)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Exe(); err != nil {
			t.Fatal(err)
		}
		if len(hits) != len(wantPositions) {
			t.Fatalf("%s: %d hits, want %d", algo, len(hits), len(wantPositions))
		}
		for i := range hits {
			if hits[i] != wantPositions[i] {
				t.Fatalf("%s: hit[%d] = %d, want %d", algo, i, hits[i], wantPositions[i])
			}
		}
	}
}

func TestSearchKernelParallelMatchesSequential(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 2 << 20, Seed: 33})
	pattern := []byte(corpus.DefaultPattern)
	want := naivePositions(data, pattern)

	var hits []int64
	m := raft.NewMap()
	if _, err := m.Link(NewBytesReader(data, 64<<10, len(pattern)-1),
		mustSearch(t, "horspool", pattern), raft.AsOutOfOrder()); err != nil {
		t.Fatal(err)
	}
	srch := m.Kernels()[1]
	if _, err := m.Link(srch, NewWriteEach(&hits)); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(raft.WithAutoReplicate(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("expected one replicated group, got %+v", rep.Groups)
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
	if len(hits) != len(want) {
		t.Fatalf("parallel found %d hits, want %d", len(hits), len(want))
	}
	for i := range hits {
		if hits[i] != want[i] {
			t.Fatalf("hit[%d] = %d, want %d", i, hits[i], want[i])
		}
	}
}

// matchAlgos are every algorithm a match kernel accepts.
var matchAlgos = []string{"ahocorasick", "horspool", "boyermoore", "kmp", "rabinkarp", "naive"}

// straddleChunk is a little over the size at which Horspool scans with
// four cursors.
const straddleChunk = 5000

// straddlingReader streams a generated corpus in chunks of straddleChunk
// plus a last chunk of three bytes, shorter than the overlap, so the chunk
// before it ends early. The overlap is twice the pattern, as a reader
// shared with a consumer that needs wider context would have: a match that
// starts in it lies wholly inside Data, and the kernel must leave it to the
// next chunk. The pattern is planted across every chunk boundary, starting
// from m-1 bytes before it to m-1 bytes after it in turn, and once at the
// end of the corpus. It returns the reader and the naive oracle's hits.
func straddlingReader(pattern []byte) (*BytesReader, []int64) {
	const chunks = 200
	n := chunks*straddleChunk + 3
	data := corpus.Generate(corpus.Spec{Bytes: n, Seed: 55})[:n:n]
	m := len(pattern)
	for k := 1; k < chunks; k++ {
		copy(data[k*straddleChunk+k%(2*m-1)-(m-1):], pattern)
	}
	copy(data[n-m:], pattern)
	return NewBytesReader(data, straddleChunk, 2*m), naivePositions(data, pattern)
}

// TestCountSearchTotalsMatch counts with every algorithm over chunks whose
// overlaps hold matches, ending with a chunk shorter than the overlap.
func TestCountSearchTotalsMatch(t *testing.T) {
	pattern := []byte(corpus.DefaultPattern)
	for _, algo := range matchAlgos {
		t.Run(algo, func(t *testing.T) {
			cs, err := NewCountSearch(algo, pattern)
			if err != nil {
				t.Fatal(err)
			}
			reader, want := straddlingReader(pattern)
			var total int64
			m := raft.NewMap()
			if _, err := m.Link(reader, cs); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Link(cs, NewReduce(func(a, v int64) int64 { return a + v }, 0, &total)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Exe(); err != nil {
				t.Fatal(err)
			}
			if total != int64(len(want)) {
				t.Fatalf("counted %d, want %d", total, len(want))
			}
		})
	}
}

// TestSearchKernelFindsStraddlingHits is TestCountSearchTotalsMatch for the
// kernel that emits offsets: each match is reported once, by the chunk it
// starts in.
func TestSearchKernelFindsStraddlingHits(t *testing.T) {
	pattern := []byte(corpus.DefaultPattern)
	for _, algo := range matchAlgos {
		t.Run(algo, func(t *testing.T) {
			reader, want := straddlingReader(pattern)
			var hits []int64
			m := raft.NewMap()
			srch := mustSearch(t, algo, pattern)
			if _, err := m.Link(reader, srch); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Link(srch, NewWriteEach(&hits)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Exe(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hits, want) {
				t.Fatalf("%d hits, want %d", len(hits), len(want))
			}
		})
	}
}

func TestNewSearchRejectsBadAlgo(t *testing.T) {
	if _, err := NewSearch("quantum", []byte("x")); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func mustSearch(t *testing.T, algo string, pattern []byte) *Search {
	t.Helper()
	k, err := NewSearch(algo, pattern)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// naivePositions is the test oracle: every match start of pattern in data.
func naivePositions(data, pattern []byte) []int64 {
	var out []int64
	for i := 0; i+len(pattern) <= len(data); i++ {
		if bytes.Equal(data[i:i+len(pattern)], pattern) {
			out = append(out, int64(i))
		}
	}
	return out
}

// TestSearchGroupCountsExact runs every matcher as one group over a corpus
// in small chunks: the group measures each member in turn, settles on one
// and re-explores the others mid-stream, and whichever member handles a
// chunk, the count must be exact. Which matcher wins is host timing; raft's
// TestKernelGroupSwapsToFaster checks the election with a counting clock.
func TestSearchGroupCountsExact(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 8 << 20, Seed: 77})
	pattern := []byte(corpus.DefaultPattern)
	want := int64(len(naivePositions(data, pattern)))

	grp, err := NewSearchGroup([]string{"naive", "kmp", "ahocorasick", "horspool"}, pattern)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	m := raft.NewMap()
	// Small chunks give the group many invocations to measure with.
	if _, err := m.Link(NewBytesReader(data, 16<<10, len(pattern)-1), grp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(grp, NewReduce(func(a, v int64) int64 { return a + v }, 0, &total)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if total != want {
		t.Fatalf("group counted %d, want %d", total, want)
	}
}

func TestSearchGroupFixedMember(t *testing.T) {
	data := corpus.Generate(corpus.Spec{Bytes: 1 << 20, Seed: 78})
	pattern := []byte(corpus.DefaultPattern)
	grp, err := NewSearchGroup([]string{"kmp", "horspool"}, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if err := grp.SetFixed("kmp"); err != nil {
		t.Fatal(err)
	}
	var total int64
	m := raft.NewMap()
	if _, err := m.Link(NewBytesReader(data, 64<<10, len(pattern)-1), grp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(grp, NewReduce(func(a, v int64) int64 { return a + v }, 0, &total)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if grp.Active() != "kmp" || grp.Swaps() != 0 {
		t.Fatalf("fixed group moved: %q, %d swaps", grp.Active(), grp.Swaps())
	}
}

func TestSearchGroupBadAlgo(t *testing.T) {
	if _, err := NewSearchGroup([]string{"horspool", "alien"}, []byte("x")); err == nil {
		t.Fatal("bad member algorithm must error")
	}
}

func TestBytesReaderPrevByte(t *testing.T) {
	data := []byte("abcdefghij")
	var chunks []Chunk
	sink := raft.NewLambdaIO[Chunk, int](1, 0, func(k *raft.LambdaKernel) raft.Status {
		c, err := raft.Pop[Chunk](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		chunks = append(chunks, c)
		return raft.Proceed
	})
	m := raft.NewMap()
	if _, err := m.Link(NewBytesReader(data, 4, 1), sink); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Exe(); err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	if chunks[0].Prev != 0 {
		t.Fatalf("first chunk Prev = %q, want 0", chunks[0].Prev)
	}
	if chunks[1].Prev != 'd' || chunks[2].Prev != 'h' {
		t.Fatalf("Prev bytes = %q, %q; want d, h", chunks[1].Prev, chunks[2].Prev)
	}
}
