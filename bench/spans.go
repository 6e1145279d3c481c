package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanStride is the mean sampling stride of spans inside benchmark-owned
// kernels: one invocation in about every spanStride is timed. The gap to
// the next sample is drawn from [stride/2, 3*stride/2), because a fixed
// stride aliases with the batch a bridge or gateway delivers (256 elements
// divide 1024, so every sample would be the pop that waits for a batch).
const spanStride = 1024

// span is one timed interval recorded by the benchmark around a call into
// the program. id and parent tie children to the span that caused them;
// spans of one gateway request share req.
type span struct {
	name       string
	tid        int32
	start, end int64 // UnixNano
	id, parent uint64
	req        int64 // request id, -1 when none
}

// tracer holds the spans of one traced run in memory until the workload
// ends. A nil *tracer means tracing is off; every method is nil-safe so
// workload code has one path.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID atomic.Uint64
	tids   []string // track names; kernels of one name share a track
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// thread returns the id of the named track (one per kernel or client name;
// the 20 000 kernels of a manykernels graph share "gen" and "sink").
func (t *tracer) thread(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, have := range t.tids {
		if have == name {
			return int32(i)
		}
	}
	t.tids = append(t.tids, name)
	return int32(len(t.tids) - 1)
}

func (t *tracer) add(s ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// begin opens a span on the control track (tid -1); the returned func
// closes it. With tracing off both are no-ops.
func (t *tracer) begin(name string, parent uint64) (id uint64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.newID()
	start := time.Now().UnixNano()
	return id, func() {
		t.add(span{name: name, tid: -1, start: start, end: time.Now().UnixNano(), id: id, parent: parent, req: -1})
	}
}

// ktrace is the span recorder of one benchmark-owned kernel. Only the
// kernel's own goroutine touches it, so sampling costs a countdown and the
// spans are buffered without a lock until flush.
type ktrace struct {
	t    *tracer
	name string
	tid  int32
	skip uint32
	rng  uint32 // xorshift state for the sampling gap
	buf  []span

	runID        uint64
	runStart     int64
	popNs, pshNs int64 // sampled port-call time
	pops, pushes int64 // sampled port calls
}

// kernel returns a recorder for one kernel, or nil when tracing is off.
func (t *tracer) kernel(name string) *ktrace {
	if t == nil {
		return nil
	}
	// Each kernel starts at its own phase, so short-lived kernels (64
	// invocations on manykernels) are not all sampled on their first one.
	k := &ktrace{t: t, name: name, tid: t.thread(name), rng: uint32(t.newID())*2654435761 + 1}
	k.skip = k.gap() % spanStride
	return k
}

// gap draws the number of invocations to skip before the next sample.
func (k *ktrace) gap() uint32 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 17
	k.rng ^= k.rng << 5
	return spanStride/2 + k.rng%spanStride
}

// sample reports whether this invocation is timed, and opens its
// kernel.<name>.run span when it is.
func (k *ktrace) sample() bool {
	if k == nil {
		return false
	}
	if k.skip > 0 {
		k.skip--
		return false
	}
	k.skip = k.gap() - 1
	k.runID = k.t.newID()
	k.runStart = time.Now().UnixNano()
	return true
}

// port records a port.pop or port.push child of the open run span and
// returns the end time so back-to-back calls read the clock once.
func (k *ktrace) port(push bool, start int64) int64 {
	end := time.Now().UnixNano()
	name := "port.pop"
	if push {
		name = "port.push"
		k.pshNs += end - start
		k.pushes++
	} else {
		k.popNs += end - start
		k.pops++
	}
	k.buf = append(k.buf, span{name: name, tid: k.tid, start: start, end: end, id: k.t.newID(), parent: k.runID, req: -1})
	return end
}

// done closes the open run span.
func (k *ktrace) done(end int64) {
	k.buf = append(k.buf, span{name: "kernel." + k.name + ".run", tid: k.tid, start: k.runStart, end: end, id: k.runID, req: -1})
}

// portSums is the sampled port-call time and count of a set of kernels.
type portSums struct{ popNs, pshNs, pops, pushes int64 }

// flush hands the buffered spans to the tracer as children of the exe span
// they ran under and adds the kernel's sampled port time to sums; call
// after Exe returns.
func (k *ktrace) flush(exe uint64, sums *portSums) {
	if k == nil {
		return
	}
	sums.popNs += k.popNs
	sums.pshNs += k.pshNs
	sums.pops += k.pops
	sums.pushes += k.pushes
	for i := range k.buf {
		if k.buf[i].parent == 0 {
			k.buf[i].parent = exe
		}
	}
	k.t.add(k.buf...)
	k.buf = nil
}

// writeChrome writes the spans as Chrome-trace JSON (load it in
// ui.perfetto.dev or chrome://tracing): one complete ("X") event per span,
// one track per kernel or client, span and parent ids in args.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	var t0 int64
	for _, s := range t.spans {
		if t0 == 0 || s.start < t0 {
			t0 = s.start
		}
	}
	fmt.Fprint(w, `{"traceEvents":[`)
	fmt.Fprint(w, `{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"benchmark"}}`)
	for i, name := range t.tids {
		fmt.Fprintf(w, ",\n"+`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%q}}`, i+1, name)
	}
	for _, s := range t.spans {
		fmt.Fprintf(w, ",\n"+`{"ph":"X","pid":1,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d`,
			s.tid+1, s.name, float64(s.start-t0)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent)
		if s.req >= 0 {
			fmt.Fprintf(w, `,"req":%d`, s.req)
		}
		fmt.Fprint(w, "}}")
	}
	t.mu.Unlock()
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
