package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"raftlib/raft"
)

// env is what one pass of one workload runs under.
type env struct {
	seed    uint64
	seconds int     // timed seconds of the pass
	scale   float64 // divides every size (1 = full, 50 = smoke)
	tr      *tracer // nil when spans are off
}

// outcome is what one execution of a workload's graph reports back.
type outcome struct {
	items, bytes      int64 // delivered to sinks
	attempted, failed int64 // oracle: operations checked, operations wrong
	exe               time.Duration
	exeStart          time.Time
	// build is the time spent in NewMap/Link, summed over the execs graphs
	// the outcome covers (0 means 1); kernels is the size of one graph.
	build   time.Duration
	execs   int64
	kernels int
	reports []*raft.Report
	// ports is the sampled port-call time of the benchmark-owned kernels.
	// lanes is how many of them can be inside Run at once: their count under
	// goroutine-per-kernel, the worker count under a pooled scheduler.
	// exe x lanes is the time port calls are a share of.
	ports portSums
	lanes int
	gw    *gwPhase // gateway only: what the open-loop window measured
}

// workload is one named set of inputs. run builds the graph, executes it on
// n units of input (0 = empty input, the set-up measurement) and checks the
// output against the reference.
type workload struct {
	name string
	// perSecond is how many units of input one timed second carries on the
	// 2-core reference host. It fixes n from -seconds, so every run of a
	// commit pair does identical work; it is not re-measured at run time.
	perSecond float64
	// prepare, when set, generates the inputs every repetition shares.
	prepare func(e *env) error
	run     func(e *env, n int64) (outcome, error)
	// layer adds the per-layer metrics only this workload can measure: its
	// probes and what its traced repetition saw.
	layer func(e *env, n int64, traced outcome, m *metrics) error
}

const (
	timedReps = 3
	// Set-up is measured at least setupReps times; a cheap graph is measured
	// up to setupRepsMax times while the total stays under setupBudget.
	setupReps    = 5
	setupRepsMax = 1001
	setupBudget  = 2 * time.Second
)

// size is the number of input units of one timed repetition.
func (w *workload) size(e *env) int64 {
	n := int64(w.perSecond * float64(e.seconds) / timedReps / e.scale)
	if n < 1 {
		n = 1
	}
	return n
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rep is one timed repetition's measurements.
type rep struct {
	o      outcome
	cpu    float64
	allocs uint64
}

func timedRep(w *workload, e *env, n int64) (rep, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	o, err := w.run(e, n)
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return rep{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: oracle failed: %d of %d operations wrong\n", w.name, o.failed, o.attempted)
	}
	return rep{o: o, cpu: c1 - c0, allocs: m1.Mallocs - m0.Mallocs}, nil
}

// setupAndWarm measures set-up time (the graph on empty input: build, Exe,
// drain) and then warms the process at a tenth of n. Set-up time is the
// fastest repetition, not the median: a small graph sets up in about 0.1 ms,
// but on a share of the executions that moves between 40 % and over 95 %
// from one process to the next, Exe waits out a Go timer quantum (about 1 ms
// while a P is idle) stopping the monitor. The samples have two modes a
// factor of ten apart, and the median, and even the 5th percentile, land in
// either. Interference only ever adds time, so the fastest of many
// repetitions is the steadiest estimate of the work the program does to set
// up, which is what the metric is for.
func setupAndWarm(w *workload, e *env, n int64) (setupS float64, empty outcome, err error) {
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return 0, empty, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}
	var setups []float64
	begin := time.Now()
	for i := 0; i < setupReps || (i < setupRepsMax && time.Since(begin) < setupBudget); i++ {
		t0 := time.Now()
		empty, err = w.run(e, 0)
		if err != nil {
			return 0, empty, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if _, err = w.run(e, max(n/10, 1)); err != nil {
		return 0, empty, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	return slices.Min(setups), empty, nil
}

// detail is the human-oriented line printed before the contract line.
type detail struct {
	Workload   string                `json:"workload"`
	Trace      int                   `json:"trace"`
	Seed       uint64                `json:"seed"`
	N          int64                 `json:"n_per_repetition"`
	Reps       int                   `json:"repetitions"`
	Quartiles  map[string][3]float64 `json:"quartiles,omitempty"`
	FailedShr  float64               `json:"failed_share"`
	TraceFile  string                `json:"trace_file,omitempty"`
	Provenance provenance            `json:"provenance"`
}

// untraced is the end-to-end pass: set-up, warm-up, timedReps repetitions
// with spans off, each metric the median over repetitions.
func untraced(w *workload, e *env) (result, detail, error) {
	n := w.size(e)
	det := detail{Workload: w.name, Seed: e.seed, N: n, Quartiles: map[string][3]float64{}}
	setupS, _, err := setupAndWarm(w, e, n)
	if err != nil {
		return result{}, det, err
	}
	var ips, bps, allocs []float64
	var attempted, failed int64
	budget := time.Duration(float64(e.seconds) * 1.6 * float64(time.Second))
	start := time.Now()
	for r := 0; r < timedReps; r++ {
		rp, err := timedRep(w, e, n)
		if err != nil {
			return result{}, det, err
		}
		secs := rp.o.exe.Seconds()
		ips = append(ips, float64(rp.o.items)/secs)
		bps = append(bps, float64(rp.o.bytes)/secs)
		allocs = append(allocs, float64(rp.allocs)/float64(max(rp.o.items, 1)))
		attempted += rp.o.attempted
		failed += rp.o.failed
		// A host much slower than the reference cuts repetitions, never
		// run length, so the pass still ends inside the driver's cap.
		if used := time.Since(start); used+used/time.Duration(r+1) > budget {
			break
		}
	}
	det.Reps = len(ips)

	m := newMetrics(endToEnd)
	for name, v := range map[string][]float64{
		"items_per_s": ips, "bytes_per_s": bps, "allocs_per_item": allocs,
	} {
		q1, med, q3 := quartiles(v)
		m.set(name, med)
		det.Quartiles[name] = [3]float64{q1, med, q3}
	}
	m.set("setup_s", setupS)
	det.FailedShr = float64(failed) / float64(max(attempted, 1))
	return result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m.values()}, det, nil
}

// tracedPass yields the per-layer metrics: one repetition with spans off
// and one with spans on (their ratio is the tracing overhead), the public
// Report of the traced one, and the workload's probes. Spans are written to
// bench/out/<workload>.trace.json.
func tracedPass(w *workload, e *env) (result, detail, error) {
	n := w.size(e)
	det := detail{Workload: w.name, Trace: 1, Seed: e.seed, N: n, Reps: 1}
	setupS, empty, err := setupAndWarm(w, e, n)
	if err != nil {
		return result{}, det, err
	}
	plain, err := timedRep(w, e, n)
	if err != nil {
		return result{}, det, err
	}
	te := *e
	te.tr = &tracer{}
	tr, err := timedRep(w, &te, n)
	if err != nil {
		return result{}, det, err
	}

	m := newMetrics(perLayer)
	o := tr.o
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("bench.mem_sys_mb", float64(ms.Sys)/(1<<20))
	m.set("bench.cpu_s", plain.cpu)
	m.set("bench.trace_overhead_share", 1-(float64(o.items)/o.exe.Seconds())/(float64(plain.o.items)/plain.o.exe.Seconds()))
	if o.kernels > 0 {
		m.set("raft.build_us_per_kernel", float64(o.build.Microseconds())/float64(o.kernels)/float64(max(o.execs, 1)))
		m.set("raft.exe_setup_us_per_kernel", setupS*1e6/float64(max(empty.kernels, 1)))
	}
	reportMetrics(o, m)
	spanMetrics(o, m)
	if w.layer != nil {
		if err := w.layer(&te, n, o, m); err != nil {
			return result{}, det, err
		}
	}
	det.TraceFile = "bench/out/" + w.name + ".trace.json"
	if err := te.tr.writeChrome(det.TraceFile); err != nil {
		return result{}, det, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	attempted := plain.o.attempted + o.attempted
	failed := plain.o.failed + o.failed
	det.FailedShr = float64(failed) / float64(max(attempted, 1))
	return result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m.values()}, det, nil
}

// reportMetrics folds the public Report of the traced repetition into the
// ringbuffer, monitor and scheduler metrics: shares are means over links,
// counts are sums, sizes are maxima.
func reportMetrics(o outcome, m *metrics) {
	var wblock, rblock, elapsed float64
	var links, resizes, finalCap, finalBatch, occ, ticks, events int
	var lastBatch time.Time
	var sched raft.SchedReport
	for _, r := range o.reports {
		ticks += int(r.MonitorTicks)
		events += len(r.MonitorEvents)
		for _, ev := range r.MonitorEvents {
			if strings.HasPrefix(ev.Kind, "batch-") && ev.At.After(lastBatch) {
				lastBatch = ev.At
			}
		}
		for _, l := range r.Links {
			links++
			elapsed += r.Elapsed.Seconds()
			wblock += float64(l.WriteBlockNs) / 1e9
			rblock += float64(l.ReadBlockNs) / 1e9
			resizes += int(l.Resizes)
			finalCap = max(finalCap, l.FinalCap)
			finalBatch = max(finalBatch, l.Batch)
			occ = max(occ, int(l.OccP50))
		}
		if s := r.Sched; s != nil {
			sched.Parks += s.Parks
			sched.Wakes += s.Wakes
			sched.Steals += s.Steals
			sched.Rescues += s.Rescues
			sched.StalledPasses += s.StalledPasses
		}
	}
	if elapsed > 0 {
		m.set("ringbuffer.write_block_share", wblock/elapsed)
		m.set("ringbuffer.read_block_share", rblock/elapsed)
	}
	m.set("ringbuffer.resizes", float64(resizes))
	m.set("ringbuffer.final_cap", float64(finalCap))
	m.set("ringbuffer.final_batch", float64(finalBatch))
	m.set("ringbuffer.occ_p50", float64(occ))
	m.set("monitor.ticks", float64(ticks))
	m.set("monitor.events", float64(events))
	m.set("monitor.final_batch", float64(finalBatch))
	if !lastBatch.IsZero() {
		m.set("monitor.time_to_final_batch_ms", float64(lastBatch.Sub(o.exeStart).Microseconds())/1e3)
	}
	m.set("scheduler.parks", float64(sched.Parks))
	m.set("scheduler.wakes", float64(sched.Wakes))
	m.set("scheduler.steals", float64(sched.Steals))
	m.set("scheduler.rescues", float64(sched.Rescues))
	m.set("scheduler.stalled_passes", float64(sched.StalledPasses))
	if w := sched.Wakes + sched.Rescues; w > 0 {
		m.set("scheduler.rescue_share", float64(sched.Rescues)/float64(w))
	}
}

// spanMetrics turns the sampled spans of benchmark-owned kernels into the
// mean push and pop time and the share of exe time those kernels spent
// inside port calls (waiting for the peer included): sampled time scaled by
// the stride, over exe wall time x lanes.
func spanMetrics(o outcome, m *metrics) {
	p := o.ports
	if p.pops > 0 {
		m.set("raft.pop_ns", float64(p.popNs)/float64(p.pops))
	}
	if p.pushes > 0 {
		m.set("raft.push_ns", float64(p.pshNs)/float64(p.pushes))
	}
	if o.lanes > 0 && o.exe > 0 {
		m.set("raft.port_share", float64(p.popNs+p.pshNs)*spanStride/(float64(o.exe.Nanoseconds())*float64(o.lanes)))
	}
}
