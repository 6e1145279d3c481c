// Package sparklet is a from-scratch miniature of the Apache Spark
// execution model, built as the paper's §5 comparison baseline ("a text
// matching application implemented using the Boyer-Moore algorithm
// implemented in Scala running on the popular Apache Spark framework").
//
// It reproduces the pieces of Spark that shape the paper's Figure 10
// curve:
//
//   - RDDs: immutable, partitioned, lazily evaluated datasets with a
//     lineage of narrow transformations (map / filter / flatMap /
//     mapPartitions);
//   - a driver that turns an action (collect / count / reduce) into a
//     stage of one task per partition;
//   - an executor pool of Parallelism workers running tasks concurrently —
//     this is what gives Spark its near-linear scaling;
//   - per-task result serialization (encoding/gob) between executor and
//     driver, and record-at-a-time iterator processing inside map — the
//     honest stand-ins for the JVM/serialization overheads that cap
//     Spark's per-core throughput below a native pipeline's.
//
// Wide (shuffle) dependencies are implemented for reduceByKey-style
// workloads via GroupByKey, enough to exercise a two-stage DAG.
package sparklet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
)

// Context owns the executor pool; it is the analogue of SparkContext.
type Context struct {
	// Parallelism is the executor (worker) count.
	Parallelism int
	// DisableSerialization skips the gob encode/decode of task results
	// (for unit tests isolating logic from cost model).
	DisableSerialization bool

	tasksRun   atomic.Int64
	bytesMoved atomic.Int64
	stagesRun  atomic.Int64
}

// NewContext returns a context with the given executor count (min 1).
func NewContext(parallelism int) *Context {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Context{Parallelism: parallelism}
}

// Metrics reports scheduler counters for tests and reports.
type Metrics struct {
	TasksRun   int64
	StagesRun  int64
	BytesMoved int64
}

// Metrics returns a snapshot of the context's counters.
func (c *Context) Metrics() Metrics {
	return Metrics{
		TasksRun:   c.tasksRun.Load(),
		StagesRun:  c.stagesRun.Load(),
		BytesMoved: c.bytesMoved.Load(),
	}
}

// RDD is an immutable, partitioned dataset defined by its lineage: compute
// materializes one partition on demand.
type RDD[T any] struct {
	ctx     *Context
	parts   int
	compute func(p int) []T
}

// Partitions returns the partition count.
func (r *RDD[T]) Partitions() int { return r.parts }

// Parallelize distributes a slice across numParts partitions.
func Parallelize[T any](ctx *Context, data []T, numParts int) *RDD[T] {
	if numParts < 1 {
		numParts = ctx.Parallelism
	}
	if numParts > len(data) && len(data) > 0 {
		numParts = len(data)
	}
	if numParts < 1 {
		numParts = 1
	}
	return &RDD[T]{
		ctx:   ctx,
		parts: numParts,
		compute: func(p int) []T {
			lo := p * len(data) / numParts
			hi := (p + 1) * len(data) / numParts
			return data[lo:hi]
		},
	}
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

// Filter keeps records satisfying pred (narrow).
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return &RDD[T]{
		ctx:   r.ctx,
		parts: r.parts,
		compute: func(p int) []T {
			in := r.compute(p)
			out := in[:0:0]
			for _, v := range in {
				if pred(v) {
					out = append(out, v)
				}
			}
			return out
		},
	}
}

// FlatMap applies f and concatenates the results (narrow).
func FlatMap[T, U any](r *RDD[T], f func(T) []U) *RDD[U] {
	return &RDD[U]{
		ctx:   r.ctx,
		parts: r.parts,
		compute: func(p int) []U {
			var out []U
			for _, v := range r.compute(p) {
				out = append(out, f(v)...)
			}
			return out
		},
	}
}

// MapPartitions applies f to whole partitions (narrow; the Spark idiom for
// amortizing per-record costs).
func MapPartitions[T, U any](r *RDD[T], f func(part int, in []T) []U) *RDD[U] {
	return &RDD[U]{
		ctx:     r.ctx,
		parts:   r.parts,
		compute: func(p int) []U { return f(p, r.compute(p)) },
	}
}

// Cache returns an RDD that materializes each partition at most once and
// serves subsequent computations from memory — Spark's persist(). Lineage
// above the cache is re-evaluated only on the first action touching each
// partition.
func (r *RDD[T]) Cache() *RDD[T] {
	type slot struct {
		once sync.Once
		data []T
	}
	slots := make([]slot, r.parts)
	return &RDD[T]{
		ctx:   r.ctx,
		parts: r.parts,
		compute: func(p int) []T {
			s := &slots[p]
			s.once.Do(func() { s.data = r.compute(p) })
			return s.data
		},
	}
}

// runStage executes one task per partition on the executor pool and
// returns the per-partition results, modeling executor→driver result
// serialization with a gob round trip.
func runStage[T any](r *RDD[T]) ([][]T, error) {
	ctx := r.ctx
	ctx.stagesRun.Add(1)
	results := make([][]T, r.parts)
	errs := make([]error, r.parts)
	sem := make(chan struct{}, ctx.Parallelism)
	var wg sync.WaitGroup
	for p := 0; p < r.parts; p++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			ctx.tasksRun.Add(1)
			out := r.compute(p)
			if !ctx.DisableSerialization {
				roundTripped, n, err := gobRoundTrip(out)
				if err != nil {
					errs[p] = fmt.Errorf("sparklet: task %d result serialization: %w", p, err)
					return
				}
				ctx.bytesMoved.Add(int64(n))
				out = roundTripped
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
// copy and the serialized size.
func gobRoundTrip[T any](in []T) ([]T, int, error) {
	if len(in) == 0 {
		return in, 0, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		return nil, 0, err
	}
	n := buf.Len()
	var out []T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// Collect materializes the whole RDD at the driver.
func (r *RDD[T]) Collect() ([]T, error) {
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

// Count returns the number of records.
func (r *RDD[T]) Count() (int64, error) {
	counts := Map(MapPartitions(r, func(_ int, in []T) []int64 {
		return []int64{int64(len(in))}
	}), func(v int64) int64 { return v })
	parts, err := runStage(counts)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range parts {
		for _, v := range p {
			total += v
		}
	}
	return total, nil
}

// Reduce folds all records with f (associative); per-partition folds run
// as tasks, the driver merges the partials.
func Reduce[T any](r *RDD[T], f func(a, b T) T) (T, error) {
	partials := MapPartitions(r, func(_ int, in []T) []T {
		if len(in) == 0 {
			return nil
		}
		acc := in[0]
		for _, v := range in[1:] {
			acc = f(acc, v)
		}
		return []T{acc}
	})
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

// Pair is a key/value record for shuffle operations.
type Pair[K comparable, V any] struct {
	Key K
	Val V
}

// ReduceByKey performs the two-stage shuffle: map-side combine per
// partition, hash-partition the combined pairs across numOut reducers,
// then reduce-side merge — the minimal wide dependency, exercising a
// multi-stage DAG like real Spark.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], f func(a, b V) V, numOut int) (map[K]V, error) {
	if numOut < 1 {
		numOut = r.ctx.Parallelism
	}
	// Stage 1: map-side combine.
	combined := MapPartitions(r, func(_ int, in []Pair[K, V]) []Pair[K, V] {
		m := make(map[K]V, len(in))
		for _, kv := range in {
			if old, ok := m[kv.Key]; ok {
				m[kv.Key] = f(old, kv.Val)
			} else {
				m[kv.Key] = kv.Val
			}
		}
		out := make([]Pair[K, V], 0, len(m))
		for k, v := range m {
			out = append(out, Pair[K, V]{k, v})
		}
		return out
	})
	parts, err := runStage(combined)
	if err != nil {
		return nil, err
	}
	// Shuffle: hash-partition the combined records (driver-side exchange).
	buckets := make([][]Pair[K, V], numOut)
	for _, p := range parts {
		for _, kv := range p {
			b := hashKey(kv.Key) % uint64(numOut)
			buckets[b] = append(buckets[b], kv)
		}
	}
	// Stage 2: reduce-side merge as a new RDD over the buckets.
	shuffled := &RDD[Pair[K, V]]{
		ctx:   r.ctx,
		parts: numOut,
		compute: func(p int) []Pair[K, V] {
			m := map[K]V{}
			for _, kv := range buckets[p] {
				if old, ok := m[kv.Key]; ok {
					m[kv.Key] = f(old, kv.Val)
				} else {
					m[kv.Key] = kv.Val
				}
			}
			out := make([]Pair[K, V], 0, len(m))
			for k, v := range m {
				out = append(out, Pair[K, V]{k, v})
			}
			return out
		},
	}
	final, err := shuffled.Collect()
	if err != nil {
		return nil, err
	}
	out := make(map[K]V, len(final))
	for _, kv := range final {
		out[kv.Key] = kv.Val
	}
	return out, nil
}

// hashKey hashes any comparable key via its formatted representation —
// slow but general; shuffle benchmarks use small combined maps.
func hashKey[K comparable](k K) uint64 {
	s := fmt.Sprint(k)
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
