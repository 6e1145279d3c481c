package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric and its unit. The two tables below are the
// only names the program emits; BENCHMARK.json declares the same names with
// their direction and, for end-to-end metrics, their regression bound. The
// smoke run and the unit test check the two agree in both directions.
type metricDef struct{ name, unit string }

// endToEnd metrics come from the untraced pass and are defined on every
// workload (the driver requires each run to report all of them).
var endToEnd = []metricDef{
	{"items_per_s", "1/s"},
	{"bytes_per_s", "B/s"},
	{"allocs_per_item", "1/item"},
	{"setup_s", "s"},
}

// perLayer metrics come from the traced pass: spans recorded by the
// benchmark around calls into each layer, the public raft.Report, and probes
// that call one layer's public functions in a tight loop. A metric of a
// layer the workload does not exercise, or of a probe that belongs to
// another workload, reads 0.
var perLayer = []metricDef{
	// Cost ladder (probe, scalar): one layer added per rung.
	{"ladder.ring_ns", "ns/item"}, {"ladder.ring_allocs", "1/item"},
	{"ladder.actor_ns", "ns/item"}, {"ladder.actor_allocs", "1/item"},
	{"ladder.exe_bare_ns", "ns/item"}, {"ladder.exe_bare_allocs", "1/item"},
	{"ladder.monitor_ns", "ns/item"}, {"ladder.monitor_allocs", "1/item"},
	{"ladder.markers_ns", "ns/item"}, {"ladder.markers_allocs", "1/item"},
	{"ladder.trace_ns", "ns/item"}, {"ladder.trace_allocs", "1/item"},
	{"ladder.supervised_ns", "ns/item"}, {"ladder.supervised_allocs", "1/item"},
	{"ladder.worksteal_ns", "ns/item"}, {"ladder.worksteal_allocs", "1/item"},
	// ringbuffer probes: scalar ones with scalar, bulk with autotune, views with bridge.
	{"ringbuffer.pushpop_1g_ns", "ns/item"},
	{"ringbuffer.chan_pushpop_ns", "ns/item"},
	{"ringbuffer.pushn64_ns_per_item", "ns/item"},
	{"ringbuffer.view64_ns_per_item", "ns/item"},
	// ringbuffer, from Report.Links of the traced repetition (all workloads).
	{"ringbuffer.write_block_share", "share"},
	{"ringbuffer.read_block_share", "share"},
	{"ringbuffer.resizes", "count"},
	{"ringbuffer.final_cap", "items"},
	{"ringbuffer.final_batch", "items"},
	{"ringbuffer.occ_p50", "items"},
	// raft: spans in benchmark-owned kernels, build and Exe fixed costs.
	{"raft.push_ns", "ns"},
	{"raft.pop_ns", "ns"},
	{"raft.port_share", "share"},
	{"raft.exe_fixed_ms", "ms"},
	{"raft.build_us_per_kernel", "us"},
	{"raft.exe_setup_us_per_kernel", "us"},
	{"core.step_ns", "ns"},
	// scheduler, from Report.Sched (manykernels) plus the same graph under the default scheduler.
	{"scheduler.parks", "count"},
	{"scheduler.wakes", "count"},
	{"scheduler.steals", "count"},
	{"scheduler.rescues", "count"},
	{"scheduler.stalled_passes", "count"},
	{"scheduler.rescue_share", "share"},
	{"scheduler.goroutine.items_per_s", "1/s"},
	// monitor, from Report (all workloads).
	{"monitor.ticks", "count"},
	{"monitor.events", "count"},
	{"monitor.final_batch", "items"},
	{"monitor.time_to_final_batch_ms", "ms"},
	{"trace.emit_ns", "ns"},
	{"trace.marker_stamp_ns", "ns"},
	// kernels + search (textsearch).
	{"search.horspool_bytes_per_s", "B/s"},
	{"search.ahocorasick_bytes_per_s", "B/s"},
	{"kernels.textsearch.match_busy_share", "share"},
	{"kernels.textsearch.reader_block_share", "share"},
	{"kernels.textsearch.scaling_eff", "share"},
	// mapper + graph + qmodel (manykernels).
	{"mapper.partition_ms", "ms"},
	{"graph.verify_ms", "ms"},
	{"qmodel.predictwait_ns", "ns"},
	// gateway: open loop at three fixed rates, due-time latency.
	{"gateway.handler_us", "us"},
	{"gateway.closed_loop_rps", "1/s"},
	{"gateway.r1.req_lat_p50_ms", "ms"}, {"gateway.r1.req_lat_p99_ms", "ms"}, {"gateway.r1.admitted_share", "share"},
	{"gateway.r2.req_lat_p50_ms", "ms"}, {"gateway.r2.req_lat_p99_ms", "ms"}, {"gateway.r2.admitted_share", "share"},
	{"gateway.r3.req_lat_p50_ms", "ms"}, {"gateway.r3.req_lat_p99_ms", "ms"}, {"gateway.r3.admitted_share", "share"},
	{"gateway.item_lat_p50_ms", "ms"},
	{"gateway.item_lat_p99_ms", "ms"},
	{"gateway.sustained_rps", "1/s"},
	{"gateway.shed_share", "share"},
	{"gateway.gen_lag_p99_ms", "ms"},
	{"gateway.backlog_end_items", "items"},
	// oar (bridge).
	{"oar.raw_tcp_bytes_per_s", "B/s"},
	{"oar.wire_efficiency", "share"},
	{"oar.sender_busy_share", "share"},
	{"oar.receiver_busy_share", "share"},
	{"oar.replayed", "count"},
	{"oar.reconnects", "count"},
	{"bench.trace_overhead_share", "share"},
	{"bench.mem_sys_mb", "MB"},
	{"bench.cpu_s", "s"},
}

// metrics collects the values of one pass against one table.
type metrics struct {
	defs []metricDef
	vals map[string]float64
}

func newMetrics(defs []metricDef) *metrics {
	return &metrics{defs: defs, vals: map[string]float64{}}
}

// set records a value; an unknown name is a bug in the benchmark.
func (m *metrics) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = v
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// values renders every metric of the table; unset ones read 0.
func (m *metrics) values() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}

// declared is the part of BENCHMARK.json the program reads.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// checkDeclared reports every way the program's tables and BENCHMARK.json
// disagree: a workload, metric or unit present on one side only.
func checkDeclared(d *declared) []string {
	var bad []string
	diff := func(kind string, have []metricDef, want []declaredMetric) {
		w := map[string]string{}
		for _, m := range want {
			w[m.Name] = m.Unit
		}
		for _, m := range have {
			unit, ok := w[m.name]
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("%s metric %s is emitted but not declared", kind, m.name))
			case unit != m.unit:
				bad = append(bad, fmt.Sprintf("%s metric %s: emitted unit %q, declared %q", kind, m.name, m.unit, unit))
			}
			delete(w, m.name)
		}
		for name := range w {
			bad = append(bad, fmt.Sprintf("%s metric %s is declared but not emitted", kind, name))
		}
	}
	diff("end_to_end", endToEnd, d.EndToEnd)
	diff("per_layer", perLayer, d.PerLayer)
	names := map[string]bool{}
	for _, w := range d.Workloads {
		names[w.Name] = true
	}
	for _, w := range workloads {
		if !names[w.name] {
			bad = append(bad, fmt.Sprintf("workload %s is run but not declared", w.name))
		}
		delete(names, w.name)
	}
	for name := range names {
		bad = append(bad, fmt.Sprintf("workload %s is declared but not run", name))
	}
	return bad
}
