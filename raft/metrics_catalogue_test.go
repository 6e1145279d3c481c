package raft

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// bridgedCollect is a sink that reports a bridge, so the catalogue run
// emits the bridge series without a network.
type bridgedCollect struct{ collectKernel }

func (*bridgedCollect) BridgeStats() (BridgeReport, bool) {
	return BridgeReport{Stream: "remote"}, true
}

// metricCatalogue lists every series the /metrics exposition carries after
// the fixed run of catalogueRun, one "name type labels" line each (labels
// sorted, comma-separated; a histogram's _bucket, _sum and _count series
// are listed under their own names with the family's type).
const metricCatalogue = `
raft_bridge_downtime_ns_total counter stream
raft_bridge_dropped_total counter stream
raft_bridge_reconnects_total counter stream
raft_bridge_replayed_total counter stream
raft_e2e_latency_seconds_bucket histogram le,source,tenant
raft_e2e_latency_seconds_count histogram source,tenant
raft_e2e_latency_seconds_sum histogram source,tenant
raft_flight_dumps_total counter
raft_group_active_replicas gauge group
raft_group_max_replicas gauge group
raft_kernel_busy_ns_total counter kernel
raft_kernel_mu_hat gauge kernel
raft_kernel_restarts_total counter kernel
raft_kernel_runs_total counter kernel
raft_kernel_service_ns_bucket histogram kernel,le
raft_kernel_service_ns_count histogram kernel
raft_kernel_service_ns_sum histogram kernel
raft_link_batch gauge link
raft_link_cap gauge link
raft_link_dropped_total counter link
raft_link_grows_total counter link
raft_link_lambda_hat gauge link
raft_link_len gauge link
raft_link_mu_hat gauge link
raft_link_occupancy_bucket histogram le,link
raft_link_occupancy_count histogram link
raft_link_occupancy_sum histogram link
raft_link_pops_total counter link
raft_link_pushes_total counter link
raft_link_read_block_ns_total counter link
raft_link_rho_hat gauge link
raft_link_shrinks_total counter link
raft_link_view_hold_seconds_total counter link
raft_link_views_total counter link
raft_link_write_block_ns_total counter link
raft_markers_retired_total counter
raft_monitor_resizes_total counter
raft_monitor_ticks_total counter
raft_trace_dropped_total counter
`

// schedCatalogue is what the work-stealing scheduler adds to it.
const schedCatalogue = `
raft_sched_cross_shard_links gauge scheduler
raft_sched_parks_total counter scheduler
raft_sched_rescues_total counter scheduler
raft_sched_steals_total counter scheduler
raft_sched_stolen_tasks_total counter scheduler
raft_sched_wakes_total counter scheduler
raft_sched_workers gauge scheduler
`

// catalogueRun executes a fixed graph that lights every optional section
// of the exposition — rate estimates, latency markers, the flight
// recorder, tracing, a replicated group and a bridge — and returns the
// exposition rendered from the finished execution.
func catalogueRun(t *testing.T, opts []Option) string {
	t.Helper()
	m := NewMap()
	work := newWork()
	sink := &bridgedCollect{}
	AddInput[int64](sink, "in")
	m.MustLink(newGen(2000), work, AsOutOfOrder())
	m.MustLink(work, sink)
	opts = append([]Option{
		WithAutoReplicate(2),
		WithServiceRateControl(),
		WithLatencyMarkers(16),
		WithFlightRecorder(filepath.Join(t.TempDir(), "catalogue")),
	}, opts...)
	ex, err := m.ExeAsync(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Wait(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	ex.writeMetrics(&b)
	return b.String()
}

// catalogueOf reduces an exposition to its sorted "name type labels" lines.
func catalogueOf(body string) string {
	types := map[string]string{}
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if line == "" || line[0] == '#' {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			var keys []string
			for _, kv := range strings.Split(series[i+1:len(series)-1], `",`) {
				keys = append(keys, kv[:strings.IndexByte(kv, '=')])
			}
			sort.Strings(keys)
			labels = strings.Join(keys, ",")
		}
		typ, ok := types[name]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if family, cut := strings.CutSuffix(name, suffix); !ok && cut {
				typ, ok = types[family]
			}
		}
		if !ok {
			typ = "untyped"
		}
		seen[strings.TrimSpace(name+" "+typ+" "+labels)] = true
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestMetricsCatalogue fails when a /metrics series is added, dropped or
// renamed, or changes its type or label set, under either scheduler.
func TestMetricsCatalogue(t *testing.T) {
	for _, sc := range bothSchedulers {
		t.Run(sc.name, func(t *testing.T) {
			lines := strings.Split(strings.TrimSpace(metricCatalogue), "\n")
			if sc.opts != nil {
				lines = append(lines, strings.Split(strings.TrimSpace(schedCatalogue), "\n")...)
				sort.Strings(lines)
			}
			got := catalogueOf(catalogueRun(t, sc.opts))
			if want := strings.Join(lines, "\n"); got != want {
				t.Fatalf("metric catalogue changed:\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}
