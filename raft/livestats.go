package raft

import "time"

// LiveStats is one point-in-time snapshot of a running application,
// delivered to the observer installed with WithObserver. This is the
// user-facing half of the paper's §4.1 monitoring claim: "the user has
// access to monitor useful things such as queue size, current kernel
// configuration as they are updated by the run-time. In addition ... mean
// queue occupancy, service rate, throughput, queue occupancy histograms."
// Its rows are the Report's, read from the live graph at the snapshot.
type LiveStats struct {
	// At is the snapshot timestamp.
	At time.Time
	// Elapsed is the time since execution started.
	Elapsed time.Duration
	// Kernels holds one row per live kernel.
	Kernels []KernelReport
	// Links holds one row per stream of the live graph (a stream a rewrite
	// removed is gone from the next snapshot; Report keeps it).
	Links []LinkReport
	// Flows holds per-(tenant,source) end-to-end latency so far, from
	// retired markers (empty until the first marker completes its journey;
	// always empty under WithoutLatencyMarkers).
	Flows []FlowStats
	// Sched holds the scheduler's activity counters so far (nil under the
	// default goroutine-per-kernel scheduler, which has none to report).
	Sched *SchedReport
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
	ls := LiveStats{At: now, Elapsed: now.Sub(s.start), Sched: s.ex.schedReport()}
	ls.Kernels, ls.Links = s.ex.liveRows(nil)
	if rig := s.ex.cfg.markers; rig != nil {
		ls.Flows = rig.dom.Flows()
	}
	return ls
}

func (s *statsStreamer) Stop() {
	close(s.stop)
	<-s.done
}
