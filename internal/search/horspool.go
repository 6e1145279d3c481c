package search

import (
	"fmt"
	"slices"
)

// Horspool implements Boyer-Moore-Horspool [Horspool 1980], "often much
// faster for single pattern matching" (paper §5): the simplified
// Boyer-Moore using only the bad-character shift of the last window byte.
//
// One step loads a text byte, loads its shift and only then knows the next
// byte to load, so a single cursor runs at the latency of that dependent
// chain rather than at the rate the core can start loads. A text of at
// least interleaveMin bytes is therefore scanned by interleave (four)
// cursors in one loop: cursor k owns the match starts of the k-th quarter of the text
// and stops at the first start its successor owns, though it may read up
// to m-1 bytes past that boundary to verify a match. Each cursor applies
// the unchanged bad-character rule from the first start it owns, so it
// reports every match in its quarter and nothing else, and the four load
// chains overlap.
type Horspool struct {
	pattern []byte
	shift   [256]int
}

const (
	// interleave is the number of cursors of the interleaved scan; the
	// unrolled loops of Find and Count are written for four.
	interleave = 4
	// interleaveMin is the shortest text the cursors interleave over;
	// shorter texts keep the single-cursor loop.
	interleaveMin = 4 << 10
)

// NewHorspool compiles the shift table for a non-empty pattern.
func NewHorspool(pattern []byte) (*Horspool, error) {
	if len(pattern) == 0 {
		return nil, fmt.Errorf("search: empty pattern")
	}
	h := &Horspool{pattern: append([]byte(nil), pattern...)}
	m := len(pattern)
	for i := range h.shift {
		h.shift[i] = m
	}
	for i := 0; i < m-1; i++ {
		h.shift[pattern[i]] = m - 1 - i
	}
	return h, nil
}

// Name implements Matcher.
func (h *Horspool) Name() string { return "horspool" }

// PatternLen implements Matcher.
func (h *Horspool) PatternLen() int { return len(h.pattern) }

// quarters splits the match starts [0, starts) of a text of n bytes among
// the cursors: cursor k owns [b[k], b[k+1]). ok is false when the text is
// too short to interleave over.
func quarters(n, starts int) (b [interleave + 1]int, ok bool) {
	if n < interleaveMin || starts < interleave {
		return b, false
	}
	for k := range b {
		b[k] = k * starts / interleave
	}
	return b, true
}

// Find implements Matcher.
func (h *Horspool) Find(dst []int, text []byte) []int {
	p := h.pattern
	m := len(p)
	starts := len(text) - m + 1
	b, ok := quarters(len(text), starts)
	if !ok {
		return h.findFrom(dst, text, 0, starts)
	}
	base := len(dst)
	last := p[m-1]
	shift := &h.shift
	t := text[m-1:] // t[i] is the last byte of the window starting at i
	i0, i1, i2, i3 := b[0], b[1], b[2], b[3]
	for i0 < b[1] && i1 < b[2] && i2 < b[3] && i3 < b[4] {
		c0, c1, c2, c3 := t[i0], t[i1], t[i2], t[i3]
		if c0 == last && matchAt(text, i0, p) {
			dst = append(dst, i0)
		}
		if c1 == last && matchAt(text, i1, p) {
			dst = append(dst, i1)
		}
		if c2 == last && matchAt(text, i2, p) {
			dst = append(dst, i2)
		}
		if c3 == last && matchAt(text, i3, p) {
			dst = append(dst, i3)
		}
		i0 += shift[c0]
		i1 += shift[c1]
		i2 += shift[c2]
		i3 += shift[c3]
	}
	dst = h.findFrom(dst, text, i0, b[1])
	dst = h.findFrom(dst, text, i1, b[2])
	dst = h.findFrom(dst, text, i2, b[3])
	dst = h.findFrom(dst, text, i3, b[4])
	// Each cursor appended its own starts in order, interleaved with the
	// others'.
	slices.Sort(dst[base:])
	return dst
}

// findFrom appends the match starts in [i, end) that a single cursor
// standing at i finds.
func (h *Horspool) findFrom(dst []int, text []byte, i, end int) []int {
	p := h.pattern
	m := len(p)
	last := p[m-1]
	shift := &h.shift
	for i < end {
		c := text[i+m-1]
		if c == last && matchAt(text, i, p) {
			dst = append(dst, i)
		}
		i += shift[c]
	}
	return dst
}

// Count implements Matcher.
func (h *Horspool) Count(text []byte) int {
	p := h.pattern
	m := len(p)
	starts := len(text) - m + 1
	b, ok := quarters(len(text), starts)
	if !ok {
		return h.countFrom(text, 0, starts)
	}
	last := p[m-1]
	shift := &h.shift
	t := text[m-1:]
	i0, i1, i2, i3 := b[0], b[1], b[2], b[3]
	n := 0
	for i0 < b[1] && i1 < b[2] && i2 < b[3] && i3 < b[4] {
		c0, c1, c2, c3 := t[i0], t[i1], t[i2], t[i3]
		if c0 == last && matchAt(text, i0, p) {
			n++
		}
		if c1 == last && matchAt(text, i1, p) {
			n++
		}
		if c2 == last && matchAt(text, i2, p) {
			n++
		}
		if c3 == last && matchAt(text, i3, p) {
			n++
		}
		i0 += shift[c0]
		i1 += shift[c1]
		i2 += shift[c2]
		i3 += shift[c3]
	}
	return n + h.countFrom(text, i0, b[1]) + h.countFrom(text, i1, b[2]) +
		h.countFrom(text, i2, b[3]) + h.countFrom(text, i3, b[4])
}

// countFrom counts the match starts in [i, end) that a single cursor
// standing at i finds.
func (h *Horspool) countFrom(text []byte, i, end int) int {
	p := h.pattern
	m := len(p)
	last := p[m-1]
	shift := &h.shift
	n := 0
	for i < end {
		c := text[i+m-1]
		if c == last && matchAt(text, i, p) {
			n++
		}
		i += shift[c]
	}
	return n
}
