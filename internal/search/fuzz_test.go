package search

import (
	"bytes"
	"testing"

	"raftlib/internal/corpus"
)

// FuzzMatchersAgree cross-validates every optimized matcher against the
// naive scanner on fuzzer-chosen inputs. Run the seeds with go test, or
// explore with: go test -fuzz FuzzMatchersAgree ./internal/search
func FuzzMatchersAgree(f *testing.F) {
	f.Add([]byte("ab"), []byte("abcabcab"))
	f.Add([]byte("aa"), []byte("aaaaaa"))
	f.Add([]byte("needle"), []byte("haystack with a needle inside"))
	f.Add([]byte{0, 1}, []byte{0, 1, 0, 1, 0})
	f.Add([]byte("x"), []byte(""))
	// Texts past interleaveMin, which Horspool scans with four cursors.
	long := corpus.Generate(corpus.Spec{Bytes: interleaveMin + 1000, Seed: 3})
	f.Add([]byte(corpus.DefaultPattern), long)
	f.Add([]byte("aa"), bytes.Repeat([]byte("a"), interleaveMin+7))
	f.Add([]byte("abab"), bytes.Repeat([]byte("ab"), interleaveMin/2+3))
	f.Add([]byte("e"), long)
	f.Fuzz(func(t *testing.T, pattern, text []byte) {
		if len(pattern) == 0 || len(pattern) > 64 || len(text) > 1<<16 {
			t.Skip()
		}
		naive, err := NewNaive(pattern)
		if err != nil {
			t.Skip()
		}
		want := naive.Find(nil, text)
		for _, algo := range []string{"horspool", "boyermoore", "kmp", "rabinkarp", "ahocorasick"} {
			m, err := New(algo, pattern)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			got := m.Find(nil, text)
			if len(got) != len(want) {
				t.Fatalf("%s found %d matches, naive found %d (pattern %q)",
					algo, len(got), len(want), pattern)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s match[%d] = %d, want %d", algo, i, got[i], want[i])
				}
			}
			if c := m.Count(text); c != len(want) {
				t.Fatalf("%s Count = %d, want %d", algo, c, len(want))
			}
		}
	})
}

// FuzzCountChunked verifies overlapped-chunk counting (the streaming
// kernels' access pattern) for every matcher.
func FuzzCountChunked(f *testing.F) {
	f.Add([]byte("abc"), []byte("xxabcxxabc"), uint16(4))
	// Texts and chunks past interleaveMin, which Horspool scans with four
	// cursors.
	long := corpus.Generate(corpus.Spec{Bytes: 3 * interleaveMin, Seed: 5})
	f.Add([]byte(corpus.DefaultPattern), long, uint16(interleaveMin+3))
	f.Add([]byte("aa"), bytes.Repeat([]byte("a"), 2*interleaveMin+5), uint16(interleaveMin))
	f.Add([]byte("ab"), bytes.Repeat([]byte("ab"), interleaveMin+1), uint16(300))
	f.Fuzz(func(t *testing.T, pattern, text []byte, chunkSeed uint16) {
		if len(pattern) == 0 || len(pattern) > 32 || len(text) > 1<<14 {
			t.Skip()
		}
		chunk := int(chunkSeed)%(2*interleaveMin) + 1
		for _, algo := range []string{"horspool", "ahocorasick", "kmp"} {
			m, err := New(algo, pattern)
			if err != nil {
				t.Skip()
			}
			whole := m.Count(text)
			if got := CountChunked(m, text, chunk); got != whole {
				t.Fatalf("%s chunk=%d: %d != whole %d", algo, chunk, got, whole)
			}
		}
	})
}
