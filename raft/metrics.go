package raft

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"raftlib/internal/stats"
)

// WriteChromeTrace writes the run's event trace as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing): one track per kernel with its
// invocations as slices, plus monitor, supervisor and bridge decisions as
// instant markers. Requires WithTrace.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	if r.Trace == nil {
		return errors.New("raft: no trace recorded (run with WithTrace)")
	}
	return r.Trace.WriteChromeTrace(w, TraceNames(r))
}

// execHealth tracks the run's lifecycle phase for the /healthz readiness
// endpoint: starting (allocation through scheduler launch), running
// (kernels executing), draining (kernels done, runtime tearing down),
// done (report built).
type execHealth struct{ phase atomic.Int32 }

const (
	healthStarting int32 = iota
	healthRunning
	healthDraining
	healthDone
)

func (h *execHealth) set(p int32) {
	if h != nil {
		h.phase.Store(p)
	}
}

func (h *execHealth) state() string {
	if h == nil {
		return "starting"
	}
	switch h.phase.Load() {
	case healthRunning:
		return "running"
	case healthDraining:
		return "draining"
	case healthDone:
		return "done"
	}
	return "starting"
}

// metricsServer serves the Prometheus text endpoint (plus pprof) for the
// duration of one Exe. Scrapes read live engine state through atomics, so
// serving concurrently with execution is safe and nearly free when nobody
// scrapes.
type metricsServer struct {
	ln   net.Listener
	addr string // captured at bind time; valid after the listener closes
	srv  *http.Server
	done chan struct{}
}

func startMetrics(ex *Execution) *metricsServer {
	ln, rec, health := ex.cfg.metricsListener, ex.rec, ex.health
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		ex.writeMetrics(w)
	})
	// /healthz is the readiness probe: 200 while the graph is executing,
	// 503 before launch and once draining/done. The body reports the
	// phase and the age of the newest trace-bus event (-1 without
	// WithTrace) — a frozen pipeline shows up as a growing age long
	// before deadlock detection fires.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		state := health.state()
		age := int64(-1)
		if rec != nil {
			if last := rec.LastEventNs(); last > 0 {
				age = time.Now().UnixNano() - last
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if state != "running" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "{\"state\":%q,\"lastTraceEventAgeNs\":%d}\n", state, age)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ms := &metricsServer{
		ln:   ln,
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux},
		done: make(chan struct{}),
	}
	go func() {
		defer close(ms.done)
		_ = ms.srv.Serve(ln)
	}()
	return ms
}

// Addr returns the bound address of the metrics endpoint.
func (ms *metricsServer) Addr() string { return ms.addr }

// Stop closes the endpoint and waits for the serve loop to exit.
func (ms *metricsServer) Stop() {
	_ = ms.srv.Close()
	<-ms.done
}

// metric is one per-row series of the exposition: its name, help text,
// Prometheus type and the value it takes from a row. A rate series carries
// the estimator's λ̂/µ̂/ρ̂ and is emitted only under WithServiceRateControl.
type metric[R any] struct {
	name, help, typ string
	value           func(*R) float64
	rate            bool
}

// linkMetrics and kernelMetrics are the per-stream and per-kernel series,
// read from the live rows (the occupancy and service-time histograms are
// rendered beside them).
var linkMetrics = []metric[LinkReport]{
	{"raft_link_pushes_total", "Elements pushed onto the stream.", "counter", func(r *LinkReport) float64 { return float64(r.Pushes) }, false},
	{"raft_link_pops_total", "Elements popped from the stream.", "counter", func(r *LinkReport) float64 { return float64(r.Pops) }, false},
	{"raft_link_write_block_ns_total", "Producer block time in nanoseconds.", "counter", func(r *LinkReport) float64 { return float64(r.WriteBlockNs) }, false},
	{"raft_link_read_block_ns_total", "Consumer block time in nanoseconds.", "counter", func(r *LinkReport) float64 { return float64(r.ReadBlockNs) }, false},
	{"raft_link_grows_total", "Monitor-driven capacity grows.", "counter", func(r *LinkReport) float64 { return float64(r.Grows) }, false},
	{"raft_link_shrinks_total", "Monitor-driven capacity shrinks.", "counter", func(r *LinkReport) float64 { return float64(r.Shrinks) }, false},
	{"raft_link_dropped_total", "Elements discarded by the best-effort overflow policy.", "counter", func(r *LinkReport) float64 { return float64(r.Dropped) }, false},
	{"raft_link_views_total", "Completed zero-copy borrow/release view cycles.", "counter", func(r *LinkReport) float64 { return float64(r.Views) }, false},
	{"raft_link_view_hold_seconds_total", "Cumulative wall time zero-copy views were held open.", "counter", func(r *LinkReport) float64 { return float64(r.ViewHoldNs) / 1e9 }, false},
	{"raft_link_len", "Instantaneous queue length.", "gauge", func(r *LinkReport) float64 { return float64(r.Len) }, false},
	{"raft_link_cap", "Current queue capacity.", "gauge", func(r *LinkReport) float64 { return float64(r.FinalCap) }, false},
	{"raft_link_batch", "Adaptive transfer batch size (0 = no decision).", "gauge", func(r *LinkReport) float64 { return float64(r.Batch) }, false},
	{"raft_link_lambda_hat", "Online arrival-rate estimate (elements/s).", "gauge", func(r *LinkReport) float64 { return r.LambdaHat }, true},
	{"raft_link_mu_hat", "Online consumer drain-rate estimate (elements/s).", "gauge", func(r *LinkReport) float64 { return r.MuHat }, true},
	{"raft_link_rho_hat", "Online utilization estimate lambda_hat/mu_hat.", "gauge", func(r *LinkReport) float64 { return r.RhoHat }, true},
}

var kernelMetrics = []metric[KernelReport]{
	{"raft_kernel_runs_total", "Kernel invocations (exact).", "counter", func(r *KernelReport) float64 { return float64(r.Runs) }, false},
	{"raft_kernel_busy_ns_total", "Cumulative kernel busy time in nanoseconds (estimated from timed invocations).", "counter", func(r *KernelReport) float64 { return float64(r.BusyNanos) }, false},
	{"raft_kernel_restarts_total", "Supervised kernel restarts.", "counter", func(r *KernelReport) float64 { return float64(r.Restarts) }, false},
	{"raft_kernel_mu_hat", "Online non-blocking service-rate estimate (elements/s).", "gauge", func(r *KernelReport) float64 { return r.MuHat }, true},
}

// writeRows renders each series of table over rows, labelling a row's
// sample with its name.
func writeRows[R any](b *strings.Builder, table []metric[R], rows []R, label string, name func(*R) string, rates bool) {
	for _, m := range table {
		if m.rate && !rates {
			continue
		}
		writeHeader(b, m.name, m.help, m.typ)
		for i := range rows {
			r := &rows[i]
			fmt.Fprintf(b, "%s{%s=%q} %s\n", m.name, label, name(r), strconv.FormatFloat(m.value(r), 'f', -1, 64))
		}
	}
}

// writeHeader writes a series family's HELP and TYPE lines.
func writeHeader(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHist renders one labelled log2 histogram: cumulative counts over the
// bucket upper edges 2^(i+1)-1, divided by unit (edges beyond bucket 40 are
// left out while empty), then +Inf, the sum and the count.
func writeHist(b *strings.Builder, name, labels string, buckets []uint64, unit uint64, sum float64, count uint64) {
	var cum uint64
	for i, n := range buckets {
		cum += n
		if n == 0 && i > 40 {
			continue // values beyond ~2^41 (ns: ~36 min) don't occur
		}
		edge := uint64(1)<<uint(i+1) - 1
		le := strconv.FormatUint(edge, 10)
		if unit != 1 {
			le = strconv.FormatFloat(float64(edge)/float64(unit), 'g', -1, 64)
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, count)
	fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, strconv.FormatFloat(sum, 'f', -1, 64))
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, count)
}

// writeMetrics renders the full exposition over the live graph as it
// stands, so kernels and links spliced in by a rewrite appear in the next
// scrape and departed ones leave it (every series name occurs once). The
// per-kernel and per-link series come from the live rows (liveRows), the
// rest from the sections the Report shares. Scrapes are rare relative to
// the hot path, so nothing here is amortized.
func (ex *Execution) writeMetrics(w io.Writer) {
	var svc []stats.HistogramSnapshot
	kernels, links := ex.liveRows(&svc)
	rates := ex.est != nil
	var b strings.Builder
	header := func(name, help, typ string) { writeHeader(&b, name, help, typ) }
	sample := func(name string, v uint64) { fmt.Fprintf(&b, "%s %d\n", name, v) }

	// Per-link series and occupancy histogram. The histogram's sum is
	// reconstructed from bucket midpoints (the hot path records one counter
	// per synchronisation, not an exact sum).
	writeRows(&b, linkMetrics, links, "link", func(r *LinkReport) string { return r.Name }, rates)
	header("raft_link_occupancy", "Queue occupancy at push time (elements).", "histogram")
	for i := range links {
		r := &links[i]
		var count uint64
		var sum float64
		for j, n := range r.OccHist {
			count += n
			mid := 1.0
			if j > 0 {
				mid = 1.5 * float64(uint64(1)<<uint(j)) // midpoint of [2^j, 2^(j+1))
			}
			sum += float64(n) * mid
		}
		writeHist(&b, "raft_link_occupancy", fmt.Sprintf("link=%q", r.Name), r.OccHist[:], 1, sum, count)
	}

	// Per-kernel series and service-time histogram.
	writeRows(&b, kernelMetrics, kernels, "kernel", func(r *KernelReport) string { return r.Name }, rates)
	header("raft_kernel_service_ns", "Kernel service time (nanoseconds) of timed invocations, each weighted by the invocations it stands for.", "histogram")
	for i := range kernels {
		h := &svc[i]
		writeHist(&b, "raft_kernel_service_ns", fmt.Sprintf("kernel=%q", kernels[i].Name), h.Buckets[:], 1, float64(h.Sum), h.Count)
	}

	// End-to-end latency provenance: per-flow histograms folded from
	// retired markers, labeled by tenant and source, in seconds.
	if rig := ex.cfg.markers; rig != nil {
		if flows := rig.dom.Flows(); len(flows) > 0 {
			header("raft_e2e_latency_seconds", "End-to-end (ingest to sink) latency of sampled markers.", "histogram")
			for _, f := range flows {
				tenant := f.Tenant
				if tenant == "" {
					tenant = "default"
				}
				writeHist(&b, "raft_e2e_latency_seconds", fmt.Sprintf("tenant=%q,source=%q", tenant, f.Source),
					f.Buckets[:], 1e9, float64(f.SumNs)/1e9, f.Count)
			}
		}
		header("raft_markers_retired_total", "Latency markers retired at sinks.", "counter")
		sample("raft_markers_retired_total", rig.dom.Retired())
	}
	if flight := ex.cfg.flight; flight != nil {
		header("raft_flight_dumps_total", "Flight-recorder post-mortem artifacts written.", "counter")
		sample("raft_flight_dumps_total", flight.Dumps())
	}

	// Replicated groups and bridges.
	if groups := ex.groupRows(); len(groups) > 0 {
		header("raft_group_active_replicas", "Active replicas in the group.", "gauge")
		for _, g := range groups {
			fmt.Fprintf(&b, "raft_group_active_replicas{group=%q} %d\n", g.Name, g.ActiveAtEnd)
		}
		header("raft_group_max_replicas", "Replica ceiling of the group.", "gauge")
		for _, g := range groups {
			fmt.Fprintf(&b, "raft_group_max_replicas{group=%q} %d\n", g.Name, g.MaxReplicas)
		}
	}
	if bridges := ex.bridgeRows(); len(bridges) > 0 {
		for _, c := range []struct {
			name, help string
			get        func(BridgeReport) uint64
		}{
			{"raft_bridge_reconnects_total", "Bridge reconnections.", func(br BridgeReport) uint64 { return br.Reconnects }},
			{"raft_bridge_replayed_total", "Frames replayed after reconnect.", func(br BridgeReport) uint64 { return br.Replayed }},
			{"raft_bridge_dropped_total", "Elements dropped under the Drop policy.", func(br BridgeReport) uint64 { return br.Dropped }},
			{"raft_bridge_downtime_ns_total", "Cumulative bridge downtime in nanoseconds.", func(br BridgeReport) uint64 { return uint64(br.Downtime) }},
		} {
			header(c.name, c.help, "counter")
			for _, br := range bridges {
				fmt.Fprintf(&b, "%s{stream=%q} %d\n", c.name, br.Stream, c.get(br))
			}
		}
	}

	// Runtime-wide.
	if mon := ex.mon; mon != nil {
		header("raft_monitor_ticks_total", "Monitor loop iterations.", "counter")
		sample("raft_monitor_ticks_total", mon.Ticks())
		header("raft_monitor_resizes_total", "Monitor resize operations.", "counter")
		sample("raft_monitor_resizes_total", mon.Resizes())
	}
	if rec := ex.rec; rec != nil {
		header("raft_trace_dropped_total", "Trace events overwritten by wraparound.", "counter")
		sample("raft_trace_dropped_total", rec.Dropped())
	}

	// Scheduler activity (work-stealing scheduler only; the
	// default goroutine-per-kernel scheduler has no counters to report).
	if ss := ex.schedReport(); ss != nil {
		sched := ex.sched.Name()
		for _, c := range []struct {
			name, help, typ string
			v               uint64
		}{
			{"raft_sched_workers", "Scheduler worker goroutines.", "gauge", uint64(ss.Workers)},
			{"raft_sched_cross_shard_links", "Links whose endpoints landed on different shards.", "gauge", uint64(ss.CrossShardLinks)},
			{"raft_sched_steals_total", "Successful steal operations between worker deques.", "counter", ss.Steals},
			{"raft_sched_stolen_tasks_total", "Kernels migrated by steals.", "counter", ss.StolenTasks},
			{"raft_sched_parks_total", "Kernel park transitions (stalled, descheduled).", "counter", ss.Parks},
			{"raft_sched_wakes_total", "Kernel wakes from link readiness hooks.", "counter", ss.Wakes},
			{"raft_sched_rescues_total", "Watchdog rescues of parked kernels.", "counter", ss.Rescues},
		} {
			header(c.name, c.help, c.typ)
			fmt.Fprintf(&b, "%s{scheduler=%q} %d\n", c.name, sched, c.v)
		}
	}

	_, _ = io.WriteString(w, b.String())
}
