package raft

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// String renders the execution report as an aligned text summary: the
// user-visible face of the paper's performance-monitoring claims (§4.1:
// "the user has access to monitor useful things such as queue size,
// current kernel configuration ... mean queue occupancy, service rate,
// throughput").
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "raft execution report: %v under %s, mapper cut cost %v\n",
		r.Elapsed, r.Scheduler, r.CutCost)

	// λ̂/µ̂/ρ̂ columns appear only when the online estimator ran (they would
	// be all-zero noise otherwise).
	rates := false
	for _, l := range r.Links {
		if l.LambdaHat != 0 || l.MuHat != 0 {
			rates = true
			break
		}
	}

	// The lifecycle columns appear only when the graph was rewritten at
	// runtime: kernels spliced in or retired mid-run carry joined/left
	// offsets, and rendering them distinguishes a departed kernel's final
	// numbers from a live kernel's current ones. A static graph keeps the
	// pre-rewrite layout.
	life := false
	for _, k := range r.Kernels {
		if k.JoinedAt != 0 || k.LeftAt != 0 {
			life = true
			break
		}
	}

	fmt.Fprintf(&b, "\nkernels (%d):\n", len(r.Kernels))
	fmt.Fprintf(&b, "  %-28s %-6s %-12s %-14s %-14s %-14s", "name", "place", "runs", "mean svc", "p99 svc", "rate/s")
	if life {
		fmt.Fprintf(&b, " %-10s %-10s", "joined", "left")
	}
	if rates {
		fmt.Fprintf(&b, " %-12s", "µ̂/s")
	}
	b.WriteByte('\n')
	for _, k := range r.Kernels {
		fmt.Fprintf(&b, "  %-28s %-6d %-12d %-14s %-14s %-14.0f",
			k.Name, k.Place, k.Runs, fmtNanos(k.MeanSvcNanos), fmtNanos(float64(k.SvcP99Nanos)), k.RatePerSec)
		if life {
			fmt.Fprintf(&b, " %-10s %-10s", fmtStamp(k.JoinedAt), fmtStamp(k.LeftAt))
		}
		if rates {
			fmt.Fprintf(&b, " %-12.0f", k.MuHat)
		}
		b.WriteByte('\n')
	}

	// drop and vhold columns appear only when some link actually shed or
	// took the zero-copy view path; the lifecycle columns only when some
	// stream was spliced in or sealed mid-run (all-zero columns otherwise).
	drops, views, linkLife := false, false, false
	for _, l := range r.Links {
		if l.Dropped > 0 {
			drops = true
		}
		if l.Views > 0 {
			views = true
		}
		if l.JoinedAt != 0 || l.LeftAt != 0 {
			linkLife = true
		}
	}

	fmt.Fprintf(&b, "\nstreams (%d):\n", len(r.Links))
	writeTable(&b, streamCols(rates, drops, views, linkLife), len(r.Links), func(i int) *LinkReport { return &r.Links[i] })

	if len(r.Groups) > 0 {
		fmt.Fprintf(&b, "\nreplicated groups (%d):\n", len(r.Groups))
		for _, g := range r.Groups {
			fmt.Fprintf(&b, "  %-28s width %d/%d\n", g.Name, g.ActiveAtEnd, g.MaxReplicas)
		}
	}
	if r.MonitorTicks > 0 {
		fmt.Fprintf(&b, "\nmonitor: %d ticks, %d events\n", r.MonitorTicks, len(r.MonitorEvents))
		for _, e := range r.MonitorEvents {
			fmt.Fprintf(&b, "  %-10s %-40s %d -> %d\n", e.Kind, e.Target, e.From, e.To)
		}
	}
	if len(r.Recoveries) > 0 || len(r.Bridges) > 0 {
		fmt.Fprintf(&b, "\nrecoveries (%d restarts, %d bridges):\n", len(r.Recoveries), len(r.Bridges))
		for _, k := range r.Kernels {
			if k.Restarts > 0 {
				fmt.Fprintf(&b, "  kernel %-28s %d restarts\n", k.Name, k.Restarts)
			}
		}
		for _, e := range r.Recoveries {
			if !e.Recovered {
				fmt.Fprintf(&b, "  kernel %-28s FAILED after %d attempts: %s\n", e.Kernel, e.Attempt, e.Cause)
			}
		}
		for _, br := range r.Bridges {
			fmt.Fprintf(&b, "  bridge %-28s %d reconnects, %d replayed, %d dropped, %v down\n",
				br.Stream, br.Reconnects, br.Replayed, br.Dropped, br.Downtime)
		}
	}
	if r.Latency != nil && (r.Latency.Retired > 0 || r.Latency.FlightDumps > 0) {
		fmt.Fprintf(&b, "\nlatency (marker stride %d, %d retired):\n", r.Latency.Stride, r.Latency.Retired)
		writeTable(&b, flowCols(), len(r.Latency.Flows),
			func(i int) *FlowStats { return &r.Latency.Flows[i] })
		if len(r.Latency.Stages) > 0 {
			fmt.Fprintf(&b, " per-stage residence:\n")
			writeTable(&b, stageCols(), len(r.Latency.Stages),
				func(i int) *StageStats { return &r.Latency.Stages[i] })
		}
		if r.Latency.FlightDumps > 0 {
			fmt.Fprintf(&b, "  flight recorder: %d dump(s) in %s\n",
				r.Latency.FlightDumps, r.Latency.FlightDir)
		}
	}
	if r.Gateway != nil {
		fmt.Fprintf(&b, "\ngateway (%s): %d tenants, %d sources\n",
			r.Gateway.Addr, len(r.Gateway.Tenants), len(r.Gateway.Sources))
		writeTable(&b, tenantCols(), len(r.Gateway.Tenants),
			func(i int) *GatewayTenant { return &r.Gateway.Tenants[i] })
		for _, s := range r.Gateway.Sources {
			fmt.Fprintf(&b, "  source %-28s %d admitted, %d dropped, %d copies saved\n",
				s.Name, s.AdmittedElems, s.Dropped, s.CopiesSaved)
		}
	}
	return b.String()
}

// col is one column of an aligned report table: header, width and cell
// renderer live together, so a new column can never misalign the layout
// (header and cells are always emitted from the same spec — the drift
// that used to creep in when the two printf strings were edited apart).
type col[T any] struct {
	head  string
	width int
	cell  func(T) string
}

// writeTable renders the header row and n data rows from one column spec.
func writeTable[T any](b *strings.Builder, cols []col[T], n int, row func(int) T) {
	b.WriteByte(' ')
	for _, c := range cols {
		fmt.Fprintf(b, " %-*s", c.width, c.head)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		r := row(i)
		b.WriteByte(' ')
		for _, c := range cols {
			fmt.Fprintf(b, " %-*s", c.width, c.cell(r))
		}
		b.WriteByte('\n')
	}
}

// streamCols is the streams-section layout. The drop column appears only
// when some link shed elements; the estimator columns only when rate
// control ran; the lifecycle columns only when a rewrite spliced or
// sealed a stream mid-run.
func streamCols(rates, drops, views, life bool) []col[*LinkReport] {
	cols := []col[*LinkReport]{
		{"link", 44, func(l *LinkReport) string { return l.Name }},
		{"cap", 8, func(l *LinkReport) string { return fmt.Sprintf("%d", l.FinalCap) }},
		{"mean occ", 10, func(l *LinkReport) string { return fmt.Sprintf("%.1f", l.MeanOccupancy) }},
		{"occ p99", 8, func(l *LinkReport) string { return fmt.Sprintf("%d", l.OccP99) }},
		{"full%", 8, func(l *LinkReport) string { return fmt.Sprintf("%.1f", 100*l.FullFrac) }},
		{"starv%", 8, func(l *LinkReport) string { return fmt.Sprintf("%.1f", 100*l.StarvedFrac) }},
		{"resz", 5, func(l *LinkReport) string { return fmt.Sprintf("%d", l.Resizes) }},
		{"grows", 6, func(l *LinkReport) string { return fmt.Sprintf("%d", l.Grows) }},
		{"batch", 6, func(l *LinkReport) string { return fmt.Sprintf("%d", l.Batch) }},
	}
	if drops {
		cols = append(cols,
			col[*LinkReport]{"drop", 8, func(l *LinkReport) string { return fmt.Sprintf("%d", l.Dropped) }})
	}
	if views {
		cols = append(cols,
			col[*LinkReport]{"views", 8, func(l *LinkReport) string { return fmt.Sprintf("%d", l.Views) }},
			col[*LinkReport]{"vhold", 10, func(l *LinkReport) string { return fmtNanos(float64(l.ViewHoldNs)) }})
	}
	if life {
		cols = append(cols,
			col[*LinkReport]{"joined", 10, func(l *LinkReport) string { return fmtStamp(l.JoinedAt) }},
			col[*LinkReport]{"left", 10, func(l *LinkReport) string { return fmtStamp(l.LeftAt) }})
	}
	if rates {
		cols = append(cols,
			col[*LinkReport]{"λ̂/s", 12, func(l *LinkReport) string { return fmt.Sprintf("%.0f", l.LambdaHat) }},
			col[*LinkReport]{"µ̂/s", 12, func(l *LinkReport) string { return fmt.Sprintf("%.0f", l.MuHat) }},
			col[*LinkReport]{"ρ̂", 6, func(l *LinkReport) string { return fmt.Sprintf("%.2f", l.RhoHat) }})
	}
	return cols
}

// fmtStamp renders a lifecycle offset: "-" for a kernel or stream that
// was part of the original graph (joined) or still present at shutdown
// (left), the offset from execution start otherwise.
func fmtStamp(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return "+" + fmtNanos(float64(d))
}

// flowName renders a flow's tenant/source pair (bare source when the
// flow never crossed the gateway).
func flowName(f *FlowStats) string {
	if f.Tenant == "" {
		return f.Source
	}
	return f.Tenant + "/" + f.Source
}

// flowCols is the per-flow latency-table layout.
func flowCols() []col[*FlowStats] {
	return []col[*FlowStats]{
		{"flow", 28, flowName},
		{"count", 8, func(f *FlowStats) string { return fmt.Sprintf("%d", f.Count) }},
		{"mean", 10, func(f *FlowStats) string { return fmtNanos(float64(f.Mean())) }},
		{"p50", 10, func(f *FlowStats) string { return fmtNanos(float64(f.Quantile(0.50))) }},
		{"p99", 10, func(f *FlowStats) string { return fmtNanos(float64(f.Quantile(0.99))) }},
		{"max", 10, func(f *FlowStats) string { return fmtNanos(float64(f.MaxNs)) }},
	}
}

// stageCols is the per-stage residence-attribution layout: how long the
// sampled elements sat in each stage's inbound queue versus inside the
// stage itself.
func stageCols() []col[*StageStats] {
	return []col[*StageStats]{
		{"stage", 44, func(s *StageStats) string { return s.Stage }},
		{"hops", 8, func(s *StageStats) string { return fmt.Sprintf("%d", s.Count) }},
		{"queue mean", 11, func(s *StageStats) string {
			if s.Count == 0 {
				return "-"
			}
			return fmtNanos(float64(s.QueueNs) / float64(s.Count))
		}},
		{"kernel mean", 11, func(s *StageStats) string {
			if s.Count == 0 {
				return "-"
			}
			return fmtNanos(float64(s.KernelNs) / float64(s.Count))
		}},
	}
}

// tenantCols is the gateway tenant-table layout.
func tenantCols() []col[*GatewayTenant] {
	return []col[*GatewayTenant]{
		{"tenant", 20, func(t *GatewayTenant) string { return t.Name }},
		{"batches", 10, func(t *GatewayTenant) string { return fmt.Sprintf("%d", t.AdmittedBatches) }},
		{"elems", 12, func(t *GatewayTenant) string { return fmt.Sprintf("%d", t.AdmittedElems) }},
		{"shed:quota", 11, func(t *GatewayTenant) string { return fmt.Sprintf("%d", t.ShedQuota) }},
		{"shed:model", 11, func(t *GatewayTenant) string { return fmt.Sprintf("%d", t.ShedModel) }},
		{"e2e p99", 10, func(t *GatewayTenant) string {
			if t.E2EP99 == 0 {
				return "-"
			}
			return fmtNanos(float64(t.E2EP99))
		}},
	}
}

// fmtNanos renders a nanosecond quantity with an adaptive unit.
func fmtNanos(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// Dot renders the current topology in Graphviz DOT format — kernels as
// nodes, streams as edges labeled with port names and element types. Call
// it before or after Exe: once executed it renders the graph as it runs,
// with the runtime's adapters and replicas and every rewrite so far.
func (m *Map) Dot() string {
	links := m.links
	if m.reg != nil {
		links = nil
		for _, le := range m.reg.linksWhere(func(*Link) bool { return true }) {
			links = append(links, le.l)
		}
	}
	ids := map[*KernelBase]string{}
	var nodes []string
	id := func(k Kernel) string {
		kb := k.kernelBase()
		if _, ok := ids[kb]; !ok {
			ids[kb] = fmt.Sprintf("k%d", len(ids))
			nodes = append(nodes, fmt.Sprintf("  %s [label=%q];\n", ids[kb], kb.Name()))
		}
		return ids[kb]
	}
	var edges strings.Builder
	for _, l := range links {
		fmt.Fprintf(&edges, "  %s -> %s [label=\"%s->%s : %s\"];\n",
			id(l.Src), id(l.Dst), l.SrcPort.name, l.DstPort.name, l.SrcPort.Type())
	}
	sort.Strings(nodes)
	return "digraph raft {\n  rankdir=LR;\n  node [shape=box];\n" +
		strings.Join(nodes, "") + edges.String() + "}\n"
}
