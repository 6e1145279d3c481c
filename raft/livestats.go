package raft

import (
	"time"

	"raftlib/internal/scheduler"
	"raftlib/internal/stats"
)

// LiveStats is one point-in-time snapshot of a running application,
// delivered to the observer installed with WithObserver. This is the
// user-facing half of the paper's §4.1 monitoring claim: "the user has
// access to monitor useful things such as queue size, current kernel
// configuration as they are updated by the run-time. In addition ... mean
// queue occupancy, service rate, throughput, queue occupancy histograms."
type LiveStats struct {
	// At is the snapshot timestamp.
	At time.Time
	// Elapsed is the time since execution started.
	Elapsed time.Duration
	// Links holds one entry per stream of the live graph (a stream a
	// rewrite removed is gone from the next snapshot; Report keeps it).
	Links []LiveLink
	// Kernels holds one entry per live kernel.
	Kernels []LiveKernel
	// Flows holds per-(tenant,source) end-to-end latency snapshots from
	// retired markers (empty until the first marker completes its journey;
	// always empty under WithoutLatencyMarkers).
	Flows []LiveFlow
	// Sched holds the scheduler's activity counters so far (nil under the
	// default goroutine-per-kernel scheduler, which has none to report).
	Sched *scheduler.Stats
}

// LiveFlow is one flow's end-to-end latency so far.
type LiveFlow struct {
	// Tenant is empty for flows that never crossed the gateway.
	Tenant string
	Source string
	// Retired counts completed markers; P50 and P99 are e2e latency
	// quantile upper bounds over all of them.
	Retired  uint64
	P50, P99 time.Duration
}

// LiveLink is the instantaneous state of one stream.
type LiveLink struct {
	Name          string
	Len           int
	Cap           int
	Pushes        uint64
	Pops          uint64
	MeanOccupancy float64
	// OccP50 and OccP99 are occupancy quantile upper bounds from the
	// ring's per-push log2 histogram (elements buffered at push time).
	OccP50, OccP99 uint64
	// Dropped counts elements shed so far by the best-effort overflow
	// policy (zero on backpressure links).
	Dropped uint64
	// Batch is the adaptive batcher's current transfer size for the link
	// (0 = no decision yet / batching disabled).
	Batch int
	// LambdaHat, MuHat and RhoHat are the online arrival-rate, drain-rate
	// and utilization estimates for the link (elements/s; zero unless
	// WithServiceRateControl is active and the estimates have primed).
	LambdaHat, MuHat, RhoHat float64
}

// LiveKernel is the instantaneous state of one kernel.
type LiveKernel struct {
	Name string
	// Runs is the exact number of invocations so far.
	Runs uint64
	// MeanSvcNanos is the mean Run duration so far, over the invocations
	// the runtime timed (see KernelReport).
	MeanSvcNanos float64
	// SvcP99Nanos is the 99th-percentile Run duration upper bound so far.
	SvcP99Nanos uint64
	// RatePerSec is the invocation rate implied by the mean service time.
	RatePerSec float64
	// Restarts counts supervised recoveries of the kernel so far.
	Restarts uint64
	// MuHat is the online non-blocking service-rate estimate µ̂
	// (elements/s; zero unless WithServiceRateControl is active and the
	// estimate has primed). RatePerSec is achieved throughput; µ̂ is
	// predicted unblocked capacity.
	MuHat float64
}

// Observer receives periodic LiveStats while the application runs. It is
// called from a dedicated goroutine; implementations must not block for
// long (snapshots are dropped, not queued, while the observer runs).
type Observer func(LiveStats)

// WithObserver installs a live-statistics observer invoked every interval
// for the duration of Exe (intervals below 1ms are clamped).
func WithObserver(interval time.Duration, fn Observer) Option {
	return func(c *Config) {
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		c.observeEvery = interval
		c.observer = fn
	}
}

// statsStreamer periodically snapshots the execution for the observer.
type statsStreamer struct {
	ex    *Execution
	start time.Time
	stop  chan struct{}
	done  chan struct{}
}

func startStatsStreamer(ex *Execution) *statsStreamer {
	s := &statsStreamer{
		ex:    ex,
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *statsStreamer) loop() {
	defer close(s.done)
	fn := s.ex.cfg.observer
	t := time.NewTicker(s.ex.cfg.observeEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			// One final snapshot so the observer sees the end state.
			fn(s.snapshot())
			return
		case <-t.C:
			fn(s.snapshot())
		}
	}
}

// snapshot reads the live graph as it stands, so kernels and links spliced
// in by a rewrite appear from the next tick on and departed ones leave.
func (s *statsStreamer) snapshot() LiveStats {
	now := time.Now()
	ls := LiveStats{At: now, Elapsed: now.Sub(s.start)}
	est := s.ex.est
	links, actors := s.ex.reg.live()
	for _, l := range links {
		tel := l.Queue.Telemetry().Snapshot()
		ll := LiveLink{
			Name:          l.Name,
			Len:           l.Queue.Len(),
			Cap:           l.Queue.Cap(),
			Pushes:        tel.Pushes,
			Pops:          tel.Pops,
			MeanOccupancy: l.Occupancy.Mean(),
			OccP50:        stats.LogQuantile(tel.Occupancy[:], 0.50),
			OccP99:        stats.LogQuantile(tel.Occupancy[:], 0.99),
			Dropped:       tel.Drops(),
			Batch:         l.Batch.Get(),
		}
		if est != nil {
			if r, ok := est.Link(l.ID); ok && r.Primed {
				ll.LambdaHat, ll.MuHat, ll.RhoHat = r.Lambda, r.Mu, r.Rho
			}
		}
		ls.Links = append(ls.Links, ll)
	}
	for _, a := range actors {
		lk := LiveKernel{
			Name:         a.Name,
			Runs:         a.Service.Count(),
			MeanSvcNanos: a.Service.MeanNanos(),
			SvcP99Nanos:  a.Service.Quantile(0.99),
			RatePerSec:   a.Service.RatePerSecond(),
			Restarts:     a.Restarts.Load(),
		}
		if est != nil {
			if r, ok := est.Kernel(int32(a.ID)); ok && r.Primed {
				lk.MuHat = r.MuElems
			}
		}
		ls.Kernels = append(ls.Kernels, lk)
	}
	if sr, ok := s.ex.sched.(scheduler.StatsReporter); ok {
		ss := sr.SchedStats()
		ls.Sched = &ss
	}
	if rig := s.ex.cfg.markers; rig != nil {
		for _, f := range rig.dom.Flows() {
			ls.Flows = append(ls.Flows, LiveFlow{
				Tenant:  f.Tenant,
				Source:  f.Source,
				Retired: f.Count,
				P50:     f.Quantile(0.50),
				P99:     f.Quantile(0.99),
			})
		}
	}
	return ls
}

func (s *statsStreamer) Stop() {
	close(s.stop)
	<-s.done
}
