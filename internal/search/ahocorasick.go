package search

import "fmt"

// AhoCorasick is the classic multi-pattern automaton [Aho & Corasick 1975],
// "quite good for multiple string patterns" (paper §5). The automaton is a
// goto/fail trie compiled into a dense double-array-style transition table
// over the 256-byte alphabet for branch-free scanning.
type AhoCorasick struct {
	patterns [][]byte
	// next[state*256+b] is the DFA transition (fail links pre-resolved).
	next []int32
	// outputs[state] lists pattern indices ending at state.
	outputs [][]int32
	// maxLen is the longest pattern length.
	maxLen int
}

// NewAhoCorasick compiles the automaton for the given patterns; every
// pattern must be non-empty.
func NewAhoCorasick(patterns [][]byte) (*AhoCorasick, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("search: no patterns")
	}
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("search: pattern %d is empty", i)
		}
	}

	// Build the trie.
	type node struct {
		children map[byte]int32
		fail     int32
		out      []int32
		depth    int
	}
	trie := []node{{children: map[byte]int32{}}}
	maxLen := 0
	for pi, p := range patterns {
		if len(p) > maxLen {
			maxLen = len(p)
		}
		cur := int32(0)
		for _, b := range p {
			nxt, ok := trie[cur].children[b]
			if !ok {
				nxt = int32(len(trie))
				trie = append(trie, node{children: map[byte]int32{}, depth: trie[cur].depth + 1})
				trie[cur].children[b] = nxt
			}
			cur = nxt
		}
		trie[cur].out = append(trie[cur].out, int32(pi))
	}

	// BFS to set fail links and merge outputs.
	queue := make([]int32, 0, len(trie))
	for _, c := range trie[0].children {
		trie[c].fail = 0
		queue = append(queue, c)
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for b, v := range trie[u].children {
			queue = append(queue, v)
			f := trie[u].fail
			for {
				if w, ok := trie[f].children[b]; ok && w != v {
					trie[v].fail = w
					break
				}
				if f == 0 {
					if w, ok := trie[0].children[b]; ok && w != v {
						trie[v].fail = w
					} else {
						trie[v].fail = 0
					}
					break
				}
				f = trie[f].fail
			}
			trie[v].out = append(trie[v].out, trie[trie[v].fail].out...)
		}
	}

	// Flatten to a dense DFA.
	ac := &AhoCorasick{
		patterns: patterns,
		next:     make([]int32, len(trie)*256),
		outputs:  make([][]int32, len(trie)),
		maxLen:   maxLen,
	}
	for qi := -1; qi < len(queue); qi++ {
		var s int32
		if qi >= 0 {
			s = queue[qi]
		}
		ac.outputs[s] = trie[s].out
		base := int(s) * 256
		for b := 0; b < 256; b++ {
			if c, ok := trie[s].children[byte(b)]; ok {
				ac.next[base+b] = c
			} else if s == 0 {
				ac.next[base+b] = 0
			} else {
				ac.next[base+b] = ac.next[int(trie[s].fail)*256+b]
			}
		}
	}
	return ac, nil
}

// Name implements Matcher.
func (ac *AhoCorasick) Name() string { return "ahocorasick" }

// PatternLen implements Matcher (the longest pattern).
func (ac *AhoCorasick) PatternLen() int { return ac.maxLen }

// Find implements Matcher: the start offset of every hit of every pattern,
// in the order the hits end.
func (ac *AhoCorasick) Find(dst []int, text []byte) []int {
	state := int32(0)
	for i := 0; i < len(text); i++ {
		state = ac.next[int(state)*256+int(text[i])]
		for _, pi := range ac.outputs[state] {
			dst = append(dst, i+1-len(ac.patterns[pi]))
		}
	}
	return dst
}

// Count implements Matcher.
func (ac *AhoCorasick) Count(text []byte) int {
	state := int32(0)
	n := 0
	next := ac.next
	for i := 0; i < len(text); i++ {
		state = next[int(state)*256+int(text[i])]
		if outs := ac.outputs[state]; len(outs) > 0 {
			n += len(outs)
		}
	}
	return n
}
