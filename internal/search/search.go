// Package search implements the exact string-matching algorithms the paper
// benchmarks in §5: Aho-Corasick (multi-pattern, used by the RaftLib-AC
// configuration), Boyer-Moore-Horspool (the fast single-pattern
// configuration), full Boyer-Moore (the algorithm of the Spark baseline),
// and a naive scanner used for cross-validation in tests.
//
// All matchers report the byte offsets of match starts and support
// chunk-at-a-time scanning with a caller-managed overlap so streaming
// kernels can hand them zero-copy windows of a larger corpus.
package search

import "fmt"

// Matcher finds every occurrence of its pattern(s) in a byte slice.
type Matcher interface {
	// Name identifies the algorithm.
	Name() string
	// Find appends the start offsets of all matches in text to dst and
	// returns it. Overlapping occurrences are all reported.
	Find(dst []int, text []byte) []int
	// Count returns the number of matches in text.
	Count(text []byte) int
	// PatternLen returns the length of the (longest) pattern; chunked
	// callers overlap chunks by PatternLen-1 bytes.
	PatternLen() int
}

// New returns a matcher by algorithm name: "ahocorasick", "horspool"
// (Boyer-Moore-Horspool), "boyermoore", "kmp", "rabinkarp" or "naive".
func New(algo string, pattern []byte) (Matcher, error) {
	switch algo {
	case "ahocorasick", "ac":
		return NewAhoCorasick([][]byte{pattern})
	case "horspool", "bmh":
		return NewHorspool(pattern)
	case "boyermoore", "bm":
		return NewBoyerMoore(pattern)
	case "kmp":
		return NewKMP(pattern)
	case "rabinkarp", "rk":
		return NewRabinKarp(pattern)
	case "naive":
		return NewNaive(pattern)
	default:
		return nil, fmt.Errorf("search: unknown algorithm %q", algo)
	}
}

// Naive is the quadratic reference scanner used to validate the optimized
// matchers in tests.
type Naive struct {
	pattern []byte
}

// NewNaive returns a naive scanner; the pattern must be non-empty.
func NewNaive(pattern []byte) (*Naive, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("search: empty pattern")
	}
	return &Naive{pattern: append([]byte(nil), pattern...)}, nil
}

// Name implements Matcher.
func (n *Naive) Name() string { return "naive" }

// PatternLen implements Matcher.
func (n *Naive) PatternLen() int { return len(n.pattern) }

// Find implements Matcher.
func (n *Naive) Find(dst []int, text []byte) []int {
	p := n.pattern
	for i := 0; i+len(p) <= len(text); i++ {
		if matchAt(text, i, p) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Count implements Matcher.
func (n *Naive) Count(text []byte) int { return len(n.Find(nil, text)) }

func matchAt(text []byte, i int, p []byte) bool {
	for j := range p {
		if text[i+j] != p[j] {
			return false
		}
	}
	return true
}

// CountChunked scans text in chunks of the given size with a
// PatternLen()-1 overlap — the access pattern of the streaming kernels —
// and returns the total match count. It exists to test that chunked
// scanning is equivalent to whole-buffer scanning.
func CountChunked(m Matcher, text []byte, chunk int) int {
	if chunk <= 0 {
		chunk = 64 << 10
	}
	overlap := m.PatternLen() - 1
	total := 0
	var buf []int
	for start := 0; start < len(text); start += chunk {
		end := start + chunk + overlap
		if end > len(text) {
			end = len(text)
		}
		buf = m.Find(buf[:0], text[start:end])
		for _, pos := range buf {
			if pos < chunk { // matches beginning in the overlap belong to the next chunk
				total++
			}
		}
		if start+chunk >= len(text) {
			break
		}
	}
	return total
}
