package raft

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"raftlib/internal/qmodel"
	"raftlib/internal/ringbuffer"
	"raftlib/internal/scheduler"
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

// writeMetrics renders the full exposition over the live graph as it
// stands, so kernels and links spliced in by a rewrite appear in the next
// scrape and departed ones leave it (every series name occurs once). One
// writer, no allocation amortization needed — scrapes are rare relative to
// the hot path.
func (ex *Execution) writeMetrics(w io.Writer) {
	links, actors := ex.reg.live()
	rec, est, mon, rig, flight := ex.rec, ex.est, ex.mon, ex.cfg.markers, ex.cfg.flight
	sched, _ := ex.sched.(scheduler.StatsReporter)
	var b strings.Builder

	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	// Per-link counters and gauges.
	type linkRow struct {
		name string
		tel  ringbuffer.TelemetrySnapshot
		qlen int
		qcap int
	}
	rows := make([]linkRow, len(links))
	for i, l := range links {
		rows[i] = linkRow{l.Name, l.Queue.Telemetry().Snapshot(), l.Queue.Len(), l.Queue.Cap()}
	}
	linkCounters := []struct {
		name, help string
		get        func(ringbuffer.TelemetrySnapshot) uint64
	}{
		{"raft_link_pushes_total", "Elements pushed onto the stream.", func(t ringbuffer.TelemetrySnapshot) uint64 { return t.Pushes }},
		{"raft_link_pops_total", "Elements popped from the stream.", func(t ringbuffer.TelemetrySnapshot) uint64 { return t.Pops }},
		{"raft_link_write_block_ns_total", "Producer block time in nanoseconds.", func(t ringbuffer.TelemetrySnapshot) uint64 { return t.WriteBlockNs }},
		{"raft_link_read_block_ns_total", "Consumer block time in nanoseconds.", func(t ringbuffer.TelemetrySnapshot) uint64 { return t.ReadBlockNs }},
		{"raft_link_grows_total", "Monitor-driven capacity grows.", func(t ringbuffer.TelemetrySnapshot) uint64 { return t.Grows }},
		{"raft_link_shrinks_total", "Monitor-driven capacity shrinks.", func(t ringbuffer.TelemetrySnapshot) uint64 { return t.Shrinks }},
		{"raft_link_dropped_total", "Elements discarded by the best-effort overflow policy.", func(t ringbuffer.TelemetrySnapshot) uint64 { return t.Drops() }},
		{"raft_link_views_total", "Completed zero-copy borrow/release view cycles.", func(t ringbuffer.TelemetrySnapshot) uint64 { return t.Views }},
	}
	for _, c := range linkCounters {
		counter(c.name, c.help)
		for _, r := range rows {
			fmt.Fprintf(&b, "%s{link=%q} %d\n", c.name, r.name, c.get(r.tel))
		}
	}
	gauge("raft_link_len", "Instantaneous queue length.")
	for _, r := range rows {
		fmt.Fprintf(&b, "raft_link_len{link=%q} %d\n", r.name, r.qlen)
	}
	gauge("raft_link_cap", "Current queue capacity.")
	for _, r := range rows {
		fmt.Fprintf(&b, "raft_link_cap{link=%q} %d\n", r.name, r.qcap)
	}
	gauge("raft_link_batch", "Adaptive transfer batch size (0 = no decision).")
	for i, r := range rows {
		fmt.Fprintf(&b, "raft_link_batch{link=%q} %d\n", r.name, links[i].Batch.Get())
	}
	counter("raft_link_view_hold_seconds_total", "Cumulative wall time zero-copy views were held open.")
	for _, r := range rows {
		fmt.Fprintf(&b, "raft_link_view_hold_seconds_total{link=%q} %g\n",
			r.name, float64(r.tel.ViewHoldNs)/1e9)
	}

	// End-to-end latency provenance: per-flow histograms folded from
	// retired markers, labeled by tenant and source. The bucket edges are
	// the marker domain's log2-nanosecond edges converted to seconds.
	if rig != nil {
		flows := rig.dom.Flows()
		if len(flows) > 0 {
			fmt.Fprintf(&b, "# HELP raft_e2e_latency_seconds End-to-end (ingest to sink) latency of sampled markers.\n# TYPE raft_e2e_latency_seconds histogram\n")
			for _, f := range flows {
				tenant := f.Tenant
				if tenant == "" {
					tenant = "default"
				}
				var cum uint64
				for i, n := range f.Buckets {
					cum += n
					if n == 0 && i > 40 {
						continue // latencies beyond ~2^41 ns (~36 min) don't occur
					}
					fmt.Fprintf(&b, "raft_e2e_latency_seconds_bucket{tenant=%q,source=%q,le=\"%g\"} %d\n",
						tenant, f.Source, float64(uint64(1)<<uint(i+1)-1)/1e9, cum)
				}
				fmt.Fprintf(&b, "raft_e2e_latency_seconds_bucket{tenant=%q,source=%q,le=\"+Inf\"} %d\n",
					tenant, f.Source, f.Count)
				fmt.Fprintf(&b, "raft_e2e_latency_seconds_sum{tenant=%q,source=%q} %g\n",
					tenant, f.Source, float64(f.SumNs)/1e9)
				fmt.Fprintf(&b, "raft_e2e_latency_seconds_count{tenant=%q,source=%q} %d\n",
					tenant, f.Source, f.Count)
			}
		}
		counter("raft_markers_retired_total", "Latency markers retired at sinks.")
		fmt.Fprintf(&b, "raft_markers_retired_total %d\n", rig.dom.Retired())
	}
	if flight != nil {
		counter("raft_flight_dumps_total", "Flight-recorder post-mortem artifacts written.")
		fmt.Fprintf(&b, "raft_flight_dumps_total %d\n", flight.Dumps())
	}

	// Online rate estimates (the controller's inputs, observable so its
	// decisions are auditable; only present under WithServiceRateControl).
	if est != nil {
		type rateRow struct {
			name string
			r    qmodel.LinkRates
		}
		rrows := make([]rateRow, 0, len(links))
		for _, l := range links {
			if r, ok := est.Link(l.ID); ok {
				rrows = append(rrows, rateRow{l.Name, r})
			}
		}
		gauge("raft_link_lambda_hat", "Online arrival-rate estimate (elements/s).")
		for _, rr := range rrows {
			fmt.Fprintf(&b, "raft_link_lambda_hat{link=%q} %g\n", rr.name, rr.r.Lambda)
		}
		gauge("raft_link_mu_hat", "Online consumer drain-rate estimate (elements/s).")
		for _, rr := range rrows {
			fmt.Fprintf(&b, "raft_link_mu_hat{link=%q} %g\n", rr.name, rr.r.Mu)
		}
		gauge("raft_link_rho_hat", "Online utilization estimate lambda_hat/mu_hat.")
		for _, rr := range rrows {
			fmt.Fprintf(&b, "raft_link_rho_hat{link=%q} %g\n", rr.name, rr.r.Rho)
		}
		gauge("raft_kernel_mu_hat", "Online non-blocking service-rate estimate (elements/s).")
		for _, a := range actors {
			if r, ok := est.Kernel(int32(a.ID)); ok {
				fmt.Fprintf(&b, "raft_kernel_mu_hat{kernel=%q} %g\n", a.Name, r.MuElems)
			}
		}
	}

	// Per-link occupancy histogram: cumulative counts over the log2 bucket
	// upper edges. The sum is reconstructed from bucket midpoints (the hot
	// path records one counter per push, not an exact sum).
	fmt.Fprintf(&b, "# HELP raft_link_occupancy Queue occupancy at push time (elements).\n# TYPE raft_link_occupancy histogram\n")
	for _, r := range rows {
		var cum, count uint64
		var sum float64
		for i, n := range r.tel.Occupancy {
			count += n
			mid := 1.0
			if i > 0 {
				mid = 1.5 * float64(uint64(1)<<uint(i)) // midpoint of [2^i, 2^(i+1))
			}
			sum += float64(n) * mid
			cum += n
			fmt.Fprintf(&b, "raft_link_occupancy_bucket{link=%q,le=\"%d\"} %d\n",
				r.name, uint64(1)<<uint(i+1)-1, cum)
		}
		fmt.Fprintf(&b, "raft_link_occupancy_bucket{link=%q,le=\"+Inf\"} %d\n", r.name, count)
		fmt.Fprintf(&b, "raft_link_occupancy_sum{link=%q} %g\n", r.name, sum)
		fmt.Fprintf(&b, "raft_link_occupancy_count{link=%q} %d\n", r.name, count)
	}

	// Per-kernel counters and service-time histogram.
	counter("raft_kernel_runs_total", "Kernel invocations (exact).")
	for _, a := range actors {
		fmt.Fprintf(&b, "raft_kernel_runs_total{kernel=%q} %d\n", a.Name, a.Service.Count())
	}
	counter("raft_kernel_busy_ns_total", "Cumulative kernel busy time in nanoseconds (estimated from timed invocations).")
	for _, a := range actors {
		fmt.Fprintf(&b, "raft_kernel_busy_ns_total{kernel=%q} %d\n", a.Name, a.Service.BusyNanos())
	}
	counter("raft_kernel_restarts_total", "Supervised kernel restarts.")
	for _, a := range actors {
		fmt.Fprintf(&b, "raft_kernel_restarts_total{kernel=%q} %d\n", a.Name, a.Restarts.Load())
	}
	fmt.Fprintf(&b, "# HELP raft_kernel_service_ns Kernel service time (nanoseconds) of timed invocations, each weighted by the invocations it stands for.\n# TYPE raft_kernel_service_ns histogram\n")
	for _, a := range actors {
		snap := a.Service.Hist().Snapshot()
		var cum uint64
		for i, n := range snap.Buckets {
			cum += n
			if n == 0 && i > 40 {
				continue // durations beyond ~2^41 ns (~36 min) don't occur
			}
			fmt.Fprintf(&b, "raft_kernel_service_ns_bucket{kernel=%q,le=\"%d\"} %d\n",
				a.Name, uint64(1)<<uint(i+1)-1, cum)
		}
		fmt.Fprintf(&b, "raft_kernel_service_ns_bucket{kernel=%q,le=\"+Inf\"} %d\n", a.Name, snap.Count)
		fmt.Fprintf(&b, "raft_kernel_service_ns_sum{kernel=%q} %d\n", a.Name, snap.Sum)
		fmt.Fprintf(&b, "raft_kernel_service_ns_count{kernel=%q} %d\n", a.Name, snap.Count)
	}

	// Replicated groups.
	if len(ex.scalers) > 0 {
		gauge("raft_group_active_replicas", "Active replicas in the group.")
		for _, s := range ex.scalers {
			fmt.Fprintf(&b, "raft_group_active_replicas{group=%q} %d\n", s.Name(), s.Active())
		}
		gauge("raft_group_max_replicas", "Replica ceiling of the group.")
		for _, s := range ex.scalers {
			fmt.Fprintf(&b, "raft_group_max_replicas{group=%q} %d\n", s.Name(), s.Max())
		}
	}

	// Bridges.
	var bridges []BridgeReport
	for _, k := range ex.m.kernels {
		if br, ok := k.(BridgeReporter); ok {
			if rep, carried := br.BridgeStats(); carried {
				bridges = append(bridges, rep)
			}
		}
	}
	if len(bridges) > 0 {
		counter("raft_bridge_reconnects_total", "Bridge reconnections.")
		for _, br := range bridges {
			fmt.Fprintf(&b, "raft_bridge_reconnects_total{stream=%q} %d\n", br.Stream, br.Reconnects)
		}
		counter("raft_bridge_replayed_total", "Frames replayed after reconnect.")
		for _, br := range bridges {
			fmt.Fprintf(&b, "raft_bridge_replayed_total{stream=%q} %d\n", br.Stream, br.Replayed)
		}
		counter("raft_bridge_dropped_total", "Elements dropped under the Drop policy.")
		for _, br := range bridges {
			fmt.Fprintf(&b, "raft_bridge_dropped_total{stream=%q} %d\n", br.Stream, br.Dropped)
		}
		counter("raft_bridge_downtime_ns_total", "Cumulative bridge downtime in nanoseconds.")
		for _, br := range bridges {
			fmt.Fprintf(&b, "raft_bridge_downtime_ns_total{stream=%q} %d\n", br.Stream, int64(br.Downtime))
		}
	}

	// Runtime-wide.
	if mon != nil {
		counter("raft_monitor_ticks_total", "Monitor loop iterations.")
		fmt.Fprintf(&b, "raft_monitor_ticks_total %d\n", mon.Ticks())
		counter("raft_monitor_resizes_total", "Monitor resize operations.")
		fmt.Fprintf(&b, "raft_monitor_resizes_total %d\n", mon.Resizes())
	}
	if rec != nil {
		counter("raft_trace_dropped_total", "Trace events overwritten by wraparound.")
		fmt.Fprintf(&b, "raft_trace_dropped_total %d\n", rec.Dropped())
	}

	// Scheduler activity (work-stealing scheduler only; the
	// default goroutine-per-kernel scheduler has no counters to report).
	if sched != nil {
		ss := sched.SchedStats()
		gauge("raft_sched_workers", "Scheduler worker goroutines.")
		fmt.Fprintf(&b, "raft_sched_workers{scheduler=%q} %d\n", ss.Scheduler, ss.Workers)
		gauge("raft_sched_cross_shard_links", "Links whose endpoints landed on different shards.")
		fmt.Fprintf(&b, "raft_sched_cross_shard_links{scheduler=%q} %d\n", ss.Scheduler, ss.CrossShardLinks)
		schedCounters := []struct {
			name, help string
			v          uint64
		}{
			{"raft_sched_steals_total", "Successful steal operations between worker deques.", ss.Steals},
			{"raft_sched_stolen_tasks_total", "Kernels migrated by steals.", ss.StolenTasks},
			{"raft_sched_parks_total", "Kernel park transitions (stalled, descheduled).", ss.Parks},
			{"raft_sched_wakes_total", "Kernel wakes from link readiness hooks.", ss.Wakes},
			{"raft_sched_rescues_total", "Watchdog rescues of parked kernels.", ss.Rescues},
		}
		for _, c := range schedCounters {
			counter(c.name, c.help)
			fmt.Fprintf(&b, "%s{scheduler=%q} %d\n", c.name, ss.Scheduler, c.v)
		}
	}

	_, _ = io.WriteString(w, b.String())
}

// pollMetricsOnce is a test helper: fetch the endpoint body with a short
// timeout.
func pollMetricsOnce(addr string) (string, error) {
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}
