package search

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"raftlib/internal/corpus"
)

func allMatchers(t *testing.T, pattern []byte) []Matcher {
	t.Helper()
	var ms []Matcher
	for _, algo := range []string{"naive", "horspool", "boyermoore", "ahocorasick", "kmp", "rabinkarp"} {
		m, err := New(algo, pattern)
		if err != nil {
			t.Fatalf("New(%s): %v", algo, err)
		}
		ms = append(ms, m)
	}
	return ms
}

func TestNewUnknownAlgorithm(t *testing.T) {
	if _, err := New("quantum", []byte("x")); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	for _, algo := range []string{"naive", "horspool", "boyermoore", "ahocorasick", "kmp", "rabinkarp"} {
		if _, err := New(algo, nil); err == nil {
			t.Errorf("%s accepted empty pattern", algo)
		}
	}
}

func TestKnownPositions(t *testing.T) {
	text := []byte("abracadabra abra abracadabra")
	want := map[string][]int{
		"abra":        {0, 7, 12, 17, 24},
		"cad":         {4, 21},
		"a":           {0, 3, 5, 7, 10, 12, 15, 17, 20, 22, 24, 27},
		"abracadabra": {0, 17},
		"zzz":         nil,
	}
	for pat, positions := range want {
		for _, m := range allMatchers(t, []byte(pat)) {
			got := m.Find(nil, text)
			if !reflect.DeepEqual(got, positions) {
				t.Errorf("%s.Find(%q) = %v, want %v", m.Name(), pat, got, positions)
			}
			if c := m.Count(text); c != len(positions) {
				t.Errorf("%s.Count(%q) = %d, want %d", m.Name(), pat, c, len(positions))
			}
		}
	}
}

func TestOverlappingMatches(t *testing.T) {
	text := []byte("aaaaa")
	for _, m := range allMatchers(t, []byte("aa")) {
		got := m.Find(nil, text)
		want := []int{0, 1, 2, 3}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s overlapping = %v, want %v", m.Name(), got, want)
		}
	}
}

func TestPatternLongerThanText(t *testing.T) {
	for _, m := range allMatchers(t, []byte("longpattern")) {
		if got := m.Find(nil, []byte("short")); len(got) != 0 {
			t.Errorf("%s found %v in shorter text", m.Name(), got)
		}
	}
}

func TestEmptyText(t *testing.T) {
	for _, m := range allMatchers(t, []byte("x")) {
		if got := m.Count(nil); got != 0 {
			t.Errorf("%s.Count(nil) = %d", m.Name(), got)
		}
	}
}

func TestPatternEqualsText(t *testing.T) {
	for _, m := range allMatchers(t, []byte("exact")) {
		got := m.Find(nil, []byte("exact"))
		if !reflect.DeepEqual(got, []int{0}) {
			t.Errorf("%s = %v, want [0]", m.Name(), got)
		}
	}
}

// Property: every optimized matcher agrees with the naive scanner on
// random binary inputs over a small alphabet (maximizing accidental
// matches and shift-table stress).
func TestPropertyAgreesWithNaive(t *testing.T) {
	f := func(patSeed []byte, textSeed []byte) bool {
		// Map onto a 4-letter alphabet; bound pattern length to [1, 8].
		alphabet := []byte("abab") // heavy overlap on purpose
		mk := func(src []byte, maxLen int) []byte {
			if len(src) > maxLen {
				src = src[:maxLen]
			}
			out := make([]byte, len(src))
			for i, b := range src {
				out[i] = alphabet[int(b)%len(alphabet)]
			}
			return out
		}
		pat := mk(patSeed, 8)
		if len(pat) == 0 {
			pat = []byte("a")
		}
		text := mk(textSeed, 4096)

		naive, _ := NewNaive(pat)
		want := naive.Find(nil, text)
		for _, algo := range []string{"horspool", "boyermoore", "ahocorasick", "kmp", "rabinkarp"} {
			m, err := New(algo, pat)
			if err != nil {
				return false
			}
			got := m.Find(nil, text)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedEqualsWhole(t *testing.T) {
	text := corpus.Generate(corpus.Spec{Bytes: 1 << 20, Seed: 7})
	pat := []byte(corpus.DefaultPattern)
	for _, m := range allMatchers(t, pat) {
		whole := m.Count(text)
		if whole == 0 {
			t.Fatalf("%s found no hits in generated corpus", m.Name())
		}
		for _, chunk := range []int{333, 4 << 10, 64 << 10} {
			if got := CountChunked(m, text, chunk); got != whole {
				t.Errorf("%s chunk=%d: count %d, want %d", m.Name(), chunk, got, whole)
			}
		}
	}
}

func TestCountChunkedDefaultSize(t *testing.T) {
	m, _ := NewHorspool([]byte("ab"))
	if got := CountChunked(m, []byte("abxab"), 0); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestAhoCorasickMultiPattern(t *testing.T) {
	ac, err := NewAhoCorasick([][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers")})
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("ushers")
	got := ac.Find(nil, text)
	// "she" at 1, "he" at 2, "hers" at 2.
	if want := []int{1, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Find = %v, want %v", got, want)
	}
	if ac.Count(text) != 3 {
		t.Fatalf("Count = %d, want 3", ac.Count(text))
	}
	if ac.PatternLen() != 4 {
		t.Fatalf("PatternLen = %d, want 4", ac.PatternLen())
	}
}

func TestAhoCorasickRejectsEmptyInputs(t *testing.T) {
	if _, err := NewAhoCorasick(nil); err == nil {
		t.Fatal("no patterns must error")
	}
	if _, err := NewAhoCorasick([][]byte{[]byte("ok"), nil}); err == nil {
		t.Fatal("empty pattern must error")
	}
}

func TestHorspoolVsBoyerMooreOnCorpus(t *testing.T) {
	text := corpus.Generate(corpus.Spec{Bytes: 256 << 10, Seed: 42})
	pat := []byte(corpus.DefaultPattern)
	h, _ := NewHorspool(pat)
	b, _ := NewBoyerMoore(pat)
	a, _ := NewAhoCorasick([][]byte{pat})
	n, _ := NewNaive(pat)
	hc, bc, acnt, nc := h.Count(text), b.Count(text), a.Count(text), n.Count(text)
	if hc != nc || bc != nc || acnt != nc {
		t.Fatalf("counts differ: horspool=%d boyermoore=%d ac=%d naive=%d", hc, bc, acnt, nc)
	}
}

// TestHorspoolInterleavedBoundaries places matches at each four-cursor
// boundary and up to m-1 bytes either side of it, over text lengths from
// just below interleaveMin to a few patterns above it, with periodic
// patterns and m = 1 among them. Find's offsets and order and Count must
// equal the naive scanner's.
func TestHorspoolInterleavedBoundaries(t *testing.T) {
	cases := []struct {
		pattern string
		fill    func(i int) byte // the text before any match is planted
	}{
		{"parallel", func(i int) byte { return "parlel "[(i*5+i/3)%7] }},
		{"needle", func(i int) byte { return "xnedl"[(i*i+i/5)%5] }},
		{"aa", func(int) byte { return 'a' }},
		{"abab", func(i int) byte { return "ab"[i%2] }},
		{"abab", func(i int) byte { return "abb"[i%3] }},
		{"a", func(i int) byte { return "ab"[(i/3)%2] }},
		{"a", func(int) byte { return 'a' }},
	}
	for _, tc := range cases {
		p := []byte(tc.pattern)
		m := len(p)
		h, _ := NewHorspool(p)
		naive, _ := NewNaive(p)
		check := func(text []byte, what string) {
			t.Helper()
			// A prefix above every offset: Find must order only what it
			// appends.
			want := naive.Find([]int{len(text)}, text)
			if got := h.Find([]int{len(text)}, text); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q in %d bytes, %s: Find = %v, want %v", p, len(text), what, got, want)
			}
			if c := h.Count(text); c != len(want)-1 {
				t.Fatalf("%q in %d bytes, %s: Count = %d, want %d", p, len(text), what, c, len(want)-1)
			}
		}
		for n := interleaveMin - 2*m; n <= interleaveMin+4*m; n++ {
			base := make([]byte, n)
			for i := range base {
				base[i] = tc.fill(i)
			}
			check(base, "unplanted")
			starts := n - m + 1
			for k := 1; k < interleave; k++ {
				b := k * starts / interleave
				for d := -(m - 1); d <= m-1; d++ {
					at := b + d
					if at < 0 || at+m > n {
						continue
					}
					text := append([]byte(nil), base...)
					copy(text[at:], p)
					check(text, fmt.Sprintf("match at boundary %d%+d", b, d))
				}
			}
		}
	}
}

// matchSink keeps the benchmarked Count calls live.
var matchSink int

// BenchmarkMatchers counts over a 256 KiB text, the chunk each match
// kernel sees (kernels.DefaultChunkSize), and over a 4 MiB one.
func BenchmarkMatchers(b *testing.B) {
	pat := []byte(corpus.DefaultPattern)
	for _, size := range []struct {
		name  string
		bytes int
	}{{"256KiB", 256 << 10}, {"4MiB", 4 << 20}} {
		text := corpus.Generate(corpus.Spec{Bytes: size.bytes, Seed: 11})
		for _, algo := range []string{"ahocorasick", "horspool", "boyermoore", "kmp", "rabinkarp", "naive"} {
			m, err := New(algo, pat)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(size.name+"/"+algo, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				for i := 0; i < b.N; i++ {
					matchSink = m.Count(text)
				}
			})
		}
	}
}
