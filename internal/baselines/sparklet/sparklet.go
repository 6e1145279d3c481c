// Package sparklet is a from-scratch miniature of the Apache Spark
// execution model, built as the paper's §5 comparison baseline ("a text
// matching application implemented using the Boyer-Moore algorithm
// implemented in Scala running on the popular Apache Spark framework").
//
// It reproduces the pieces of Spark that shape the paper's Figure 10
// curve:
//
//   - RDDs: immutable, partitioned, lazily evaluated datasets with a
//     lineage of narrow transformations (textFile, then map);
//   - a driver that turns an action (reduce) into a stage of one task per
//     partition;
//   - an executor pool of Parallelism workers running tasks concurrently —
//     this is what gives Spark its near-linear scaling;
//   - per-task result serialization (encoding/gob) between executor and
//     driver, and record-at-a-time iterator processing inside map — the
//     honest stand-ins for the JVM/serialization overheads that cap
//     Spark's per-core throughput below a native pipeline's.
//
// Only the operations the benchmark job (TextSearchBM) runs are built.
package sparklet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// Context owns the executor pool; it is the analogue of SparkContext.
type Context struct {
	// Parallelism is the executor (worker) count.
	Parallelism int
}

// NewContext returns a context with the given executor count (min 1).
func NewContext(parallelism int) *Context {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Context{Parallelism: parallelism}
}

// RDD is an immutable, partitioned dataset defined by its lineage: compute
// materializes one partition on demand.
type RDD[T any] struct {
	ctx     *Context
	parts   int
	compute func(p int) []T
}

// TextFile exposes an in-memory corpus as an RDD of lines, the analogue of
// sc.textFile on the paper's RAM-disk corpus. Partition boundaries are
// chosen on the raw bytes at the driver (cheap); the expensive
// line-splitting — which allocates one string per record, Spark's
// fundamental record-at-a-time representation — happens inside each task,
// in parallel.
func TextFile(ctx *Context, data []byte, numParts int) *RDD[string] {
	if numParts < 1 {
		numParts = ctx.Parallelism
	}
	// Precompute partition byte ranges aligned to line boundaries.
	bounds := make([]int, numParts+1)
	for i := 1; i < numParts; i++ {
		guess := i * len(data) / numParts
		if nl := bytes.IndexByte(data[guess:], '\n'); nl >= 0 {
			bounds[i] = guess + nl + 1
		} else {
			bounds[i] = len(data)
		}
	}
	bounds[numParts] = len(data)
	for i := 1; i <= numParts; i++ { // monotone after newline snapping
		if bounds[i] < bounds[i-1] {
			bounds[i] = bounds[i-1]
		}
	}
	return &RDD[string]{
		ctx:   ctx,
		parts: numParts,
		compute: func(p int) []string {
			chunk := data[bounds[p]:bounds[p+1]]
			// Record materialization: one string per line.
			lines := make([]string, 0, 1+len(chunk)/32)
			for len(chunk) > 0 {
				nl := bytes.IndexByte(chunk, '\n')
				if nl < 0 {
					lines = append(lines, string(chunk))
					break
				}
				lines = append(lines, string(chunk[:nl]))
				chunk = chunk[nl+1:]
			}
			return lines
		},
	}
}

// Map applies f to every record (narrow dependency, fused into the parent's
// stage).
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return &RDD[U]{
		ctx:   r.ctx,
		parts: r.parts,
		compute: func(p int) []U {
			in := r.compute(p)
			out := make([]U, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			return out
		},
	}
}

// runStage executes one task per partition on the executor pool and
// returns the per-partition results, modeling executor→driver result
// serialization with a gob round trip.
func runStage[T any](r *RDD[T]) ([][]T, error) {
	results := make([][]T, r.parts)
	errs := make([]error, r.parts)
	sem := make(chan struct{}, r.ctx.Parallelism)
	var wg sync.WaitGroup
	for p := 0; p < r.parts; p++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			out, err := gobRoundTrip(r.compute(p))
			if err != nil {
				errs[p] = fmt.Errorf("sparklet: task %d result serialization: %w", p, err)
				return
			}
			results[p] = out
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// gobRoundTrip encodes and decodes a task result, returning the decoded
// copy.
func gobRoundTrip[T any](in []T) ([]T, error) {
	if len(in) == 0 {
		return in, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		return nil, err
	}
	var out []T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Reduce folds all records with f (associative); per-partition folds run
// as tasks, the driver merges the partials.
func Reduce[T any](r *RDD[T], f func(a, b T) T) (T, error) {
	partials := &RDD[T]{
		ctx:   r.ctx,
		parts: r.parts,
		compute: func(p int) []T {
			in := r.compute(p)
			if len(in) == 0 {
				return nil
			}
			acc := in[0]
			for _, v := range in[1:] {
				acc = f(acc, v)
			}
			return []T{acc}
		},
	}
	parts, err := runStage(partials)
	var zero T
	if err != nil {
		return zero, err
	}
	var acc T
	have := false
	for _, p := range parts {
		for _, v := range p {
			if !have {
				acc, have = v, true
			} else {
				acc = f(acc, v)
			}
		}
	}
	if !have {
		return zero, fmt.Errorf("sparklet: reduce of empty RDD")
	}
	return acc, nil
}
