package kernels

import (
	"fmt"

	"raftlib/internal/search"
	"raftlib/raft"
)

// Search is the paper's match kernel (§5, Figs. 8–9): it consumes Chunks
// and emits the absolute byte offset of every pattern occurrence. The
// matching algorithm is selected by name, mirroring the paper's
// search<ahocorasick> / search<boyermoore> template specialization, and
// the kernel is cloneable so the runtime can replicate it across cores
// when its inbound link is marked AsOutOfOrder.
type Search struct {
	raft.KernelBase
	algo    string
	pattern []byte
	m       search.Matcher
	scratch []int
}

// owned is the part of a chunk a match kernel scans: the match starts
// below Valid belong to this chunk, and the last of them reads
// PatternLen()-1 bytes past Valid. The kernel's matcher has one pattern,
// so no match that starts at Valid or later fits; a Data that ends sooner
// (the end of the stream) is scanned whole.
func owned(m search.Matcher, c Chunk) []byte {
	return c.Data[:min(len(c.Data), c.Valid+m.PatternLen()-1)]
}

// NewSearch returns a match kernel using the named algorithm
// ("ahocorasick", "horspool", "boyermoore", "naive") for the given
// pattern. Input port "in" carries Chunk; output port "out" carries the
// int64 offsets of matches.
func NewSearch(algo string, pattern []byte) (*Search, error) {
	m, err := search.New(algo, pattern)
	if err != nil {
		return nil, err
	}
	k := &Search{algo: algo, pattern: append([]byte(nil), pattern...), m: m}
	k.SetName("search[" + algo + "]")
	raft.AddInput[Chunk](k, "in")
	raft.AddOutput[int64](k, "out")
	return k, nil
}

// Run implements raft.Kernel.
func (s *Search) Run() raft.Status {
	c, err := raft.Pop[Chunk](s.In("in"))
	if err != nil {
		return raft.Stop
	}
	s.scratch = s.m.Find(s.scratch[:0], owned(s.m, c))
	out := s.Out("out")
	for _, pos := range s.scratch {
		if err := raft.Push(out, c.Off+int64(pos)); err != nil {
			return raft.Stop
		}
	}
	return raft.Proceed
}

// Clone implements raft.Cloner.
func (s *Search) Clone() raft.Kernel {
	dup, err := NewSearch(s.algo, s.pattern)
	if err != nil {
		panic(fmt.Sprintf("kernels: cloning search kernel: %v", err))
	}
	return dup
}

// CountSearch is a match kernel that emits one count per chunk instead of
// per-hit offsets, minimizing stream traffic for throughput benchmarking
// (the paper's Fig. 10 measures GB/s, not per-match latency).
type CountSearch struct {
	raft.KernelBase
	algo    string
	pattern []byte
	m       search.Matcher
}

// NewCountSearch returns a counting match kernel: port "in" carries Chunk,
// port "out" carries one int64 match count per chunk.
func NewCountSearch(algo string, pattern []byte) (*CountSearch, error) {
	m, err := search.New(algo, pattern)
	if err != nil {
		return nil, err
	}
	k := &CountSearch{algo: algo, pattern: append([]byte(nil), pattern...), m: m}
	k.SetName("search[" + algo + "]")
	raft.AddInput[Chunk](k, "in")
	raft.AddOutput[int64](k, "out")
	return k, nil
}

// Run implements raft.Kernel.
func (s *CountSearch) Run() raft.Status {
	c, err := raft.Pop[Chunk](s.In("in"))
	if err != nil {
		return raft.Stop
	}
	n := int64(s.m.Count(owned(s.m, c)))
	if err := raft.Push(s.Out("out"), n); err != nil {
		return raft.Stop
	}
	return raft.Proceed
}

// Clone implements raft.Cloner.
func (s *CountSearch) Clone() raft.Kernel {
	dup, err := NewCountSearch(s.algo, s.pattern)
	if err != nil {
		panic(fmt.Sprintf("kernels: cloning search kernel: %v", err))
	}
	return dup
}
