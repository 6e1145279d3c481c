package raft

import (
	"time"

	"raftlib/internal/stats"
)

// The Report, LiveStats and the /metrics exposition are three renderings of
// one set of rows (DESIGN §6). kernelRow and linkRow are the only readers of
// an actor's service timer and a ring's telemetry for reporting; the helpers
// below them build the scheduler, bridge and group sections the same three
// share.

// kernelRow fills kr from a kernel's registry entry: its actor's service
// timer, restart count, the estimator's µ̂ and the lifecycle stamps. When svc
// is non-nil it also receives a copy of the service-time histogram.
func (ex *Execution) kernelRow(kr *KernelReport, ae *actorEntry, svc *stats.HistogramSnapshot) {
	a := ae.a
	*kr = KernelReport{
		Name:         a.Name,
		Place:        a.Place,
		Runs:         a.Service.Count(),
		MeanSvcNanos: a.Service.MeanNanos(),
		SvcP50Nanos:  a.Service.Quantile(0.50),
		SvcP99Nanos:  a.Service.Quantile(0.99),
		BusyNanos:    a.Service.BusyNanos(),
		RatePerSec:   a.Service.RatePerSecond(),
		Restarts:     a.Restarts.Load(),
		JoinedAt:     time.Duration(ae.joinedNs),
		LeftAt:       time.Duration(ae.leftNs),
	}
	if svc != nil {
		*svc = a.Service.Hist().Snapshot()
	}
	if ex.est != nil {
		if r, ok := ex.est.Kernel(int32(a.ID)); ok && r.Primed {
			kr.MuHat = r.MuElems
		}
	}
}

// linkRow fills lr from a stream's registry entry: its ring's length,
// capacity and telemetry, the occupancy sampler, the batch in effect, the
// estimator's λ̂/µ̂/ρ̂ and the lifecycle stamps.
func (ex *Execution) linkRow(lr *LinkReport, le *linkEntry) {
	l := le.li
	tel := l.Queue.Telemetry().Snapshot()
	*lr = LinkReport{
		Name:          l.Name,
		Len:           l.Queue.Len(),
		FinalCap:      l.Queue.Cap(),
		MeanOccupancy: l.Occupancy.Mean(),
		FullFrac:      l.Occupancy.FullFraction(),
		StarvedFrac:   l.Occupancy.StarvedFraction(),
		Pushes:        tel.Pushes,
		Pops:          tel.Pops,
		WriteBlockNs:  tel.WriteBlockNs,
		ReadBlockNs:   tel.ReadBlockNs,
		Resizes:       tel.Resizes,
		Grows:         tel.Grows,
		Shrinks:       tel.Shrinks,
		Dropped:       tel.Drops(),
		OccHist:       tel.Occupancy,
		OccP50:        stats.LogQuantile(tel.Occupancy[:], 0.50),
		OccP99:        stats.LogQuantile(tel.Occupancy[:], 0.99),
		Batch:         l.Batch.Get(),
		Views:         tel.Views,
		ViewHoldNs:    tel.ViewHoldNs,
		JoinedAt:      time.Duration(le.joinedNs),
		LeftAt:        time.Duration(le.leftNs),
	}
	if ex.est != nil {
		if r, ok := ex.est.Link(l.ID); ok && r.Primed {
			lr.LambdaHat, lr.MuHat, lr.RhoHat = r.Lambda, r.Mu, r.Rho
		}
	}
}

// liveRows reads one row per kernel and stream of the live graph
// (registry.live), for LiveStats and /metrics. When svc is non-nil it
// receives each kernel row's service-time histogram, index for index. The
// rows are read under the registry lock, which a commit takes to stamp a
// departure.
func (ex *Execution) liveRows(svc *[]stats.HistogramSnapshot) ([]KernelReport, []LinkReport) {
	les, aes := ex.reg.live()
	kernels, links := make([]KernelReport, len(aes)), make([]LinkReport, len(les))
	if svc != nil {
		*svc = make([]stats.HistogramSnapshot, len(aes))
	}
	ex.reg.mu.Lock()
	defer ex.reg.mu.Unlock()
	for i, ae := range aes {
		var h *stats.HistogramSnapshot
		if svc != nil {
			h = &(*svc)[i]
		}
		ex.kernelRow(&kernels[i], ae, h)
	}
	for i, le := range les {
		ex.linkRow(&links[i], le)
	}
	return kernels, links
}

// schedReport reads the scheduler's activity counters; nil under the
// goroutine-per-kernel scheduler, which keeps none.
func (ex *Execution) schedReport() *SchedReport {
	if ex.ws == nil {
		return nil
	}
	ss := ex.ws.SchedStats()
	return &SchedReport{
		Workers:         ss.Workers,
		Steals:          ss.Steals,
		StolenTasks:     ss.StolenTasks,
		Parks:           ss.Parks,
		Wakes:           ss.Wakes,
		Rescues:         ss.Rescues,
		CrossShardLinks: ss.CrossShardLinks,
	}
}

// bridgeRows collects the recovery counters of the map's bridge kernels.
func (ex *Execution) bridgeRows() []BridgeReport {
	var out []BridgeReport
	for _, k := range ex.m.kernels {
		if br, ok := k.(BridgeReporter); ok {
			if b, carried := br.BridgeStats(); carried {
				out = append(out, b)
			}
		}
	}
	return out
}

// groupRows reads each replicated group's ceiling and current width.
func (ex *Execution) groupRows() []GroupReport {
	var out []GroupReport
	for _, s := range ex.scalers {
		out = append(out, GroupReport{Name: s.Name(), MaxReplicas: s.Max(), ActiveAtEnd: s.Active()})
	}
	return out
}
