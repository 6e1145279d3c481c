package raft

import (
	"fmt"
	"net"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunsExactUnderSampledTiming pins the invariant budgeted step timing
// must not break: service times of a fine-grained kernel are sampled, its
// invocation count is not. A lambda sink is held at the top of two chosen
// invocations; at each hold the count of completed invocations is known
// exactly, and the run counter the estimator taps, LiveStats and the
// Prometheus series must all show it. The difference between the two
// holds is the estimator's ΔRuns over that window; the Report carries the
// final total. A supervised restart is an invocation too (the supervisor
// absorbs the panic inside Step), so it is counted.
func TestRunsExactUnderSampledTiming(t *testing.T) {
	const items, hold1, hold2 = 60_000, 20_000, 45_000
	cases := []struct {
		name  string
		opts  []Option
		kills int64
	}{
		{"goroutine", nil, 0},
		{"worksteal", []Option{WithWorkStealing(2)}, 0},
		{"supervised-restart", []Option{WithSupervision(SupervisionPolicy{InitialBackoff: time.Microsecond})}, 1},
	}
	runsSeries := regexp.MustCompile(`raft_kernel_runs_total\{kernel="sink"\} (\d+)`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			reached := make(chan int64)
			release := make(chan struct{})
			sink := NewLambda[int64](1, 0, func(k *LambdaKernel) Status {
				if n := calls.Add(1); n == hold1 || n == hold2 {
					reached <- n
					<-release
				}
				if _, err := Pop[int64](k.In("0")); err != nil {
					return Stop
				}
				return Proceed
			})
			sink.SetName("sink")
			relay := NewLambda[int64](1, 1, func(k *LambdaKernel) Status {
				v, err := Pop[int64](k.In("0"))
				if err == nil {
					err = Push(k.Out("0"), v)
				}
				if err != nil {
					return Stop
				}
				return Proceed
			})
			m := NewMap()
			m.MustLink(newGen(items), relay)
			m.MustLink(relay, sink)

			snaps := make(chan LiveStats, 1)
			opts := append([]Option{
				WithMetricsListener(ln),
				WithObserver(time.Millisecond, func(s LiveStats) {
					select {
					case snaps <- s:
					default: // nobody is waiting for a snapshot
					}
				}),
			}, tc.opts...)
			if tc.kills > 0 {
				inj := NewFaultInjector()
				inj.KillKernel("sink", 100)
				opts = append(opts, WithFaultInjection(inj))
			}
			ex, err := m.ExeAsync(opts...)
			if err != nil {
				t.Fatal(err)
			}
			var tap func() uint64
			for _, ae := range ex.reg.actors {
				if ae.a.Name == "sink" {
					tap = ae.a.Service.Count
				}
			}
			if tap == nil {
				t.Fatal("no actor named sink")
			}

			var atHold [2]uint64
			for i := range atHold {
				n := <-reached
				heldAt := time.Now()
				// The sink is inside invocation n, which StepTimed counts
				// once it returns.
				want := uint64(n - 1 + tc.kills)
				atHold[i] = tap()
				if atHold[i] != want {
					t.Errorf("hold %d: run counter = %d, want %d", n, atHold[i], want)
				}
				body, err := pollMetricsOnce(ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				if mm := runsSeries.FindStringSubmatch(body); mm == nil {
					t.Errorf("hold %d: no raft_kernel_runs_total series for sink", n)
				} else if got, _ := strconv.ParseUint(mm[1], 10, 64); got != want {
					t.Errorf("hold %d: raft_kernel_runs_total = %d, want %d", n, got, want)
				}
				for s := range snaps {
					if s.At.Before(heldAt) {
						continue
					}
					if got := liveRuns(s, "sink"); got != want {
						t.Errorf("hold %d: LiveStats runs = %d, want %d", n, got, want)
					}
					break
				}
				release <- struct{}{}
			}
			if d := atHold[1] - atHold[0]; d != hold2-hold1 {
				t.Errorf("ΔRuns between the holds = %d, want %d", d, hold2-hold1)
			}

			rep, err := ex.Wait()
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(calls.Load() + tc.kills)
			for _, k := range rep.Kernels {
				if k.Name != "sink" {
					continue
				}
				if k.Runs != want {
					t.Errorf("KernelReport.Runs = %d, want %d (invocations %d + restarts %d)", k.Runs, want, calls.Load(), tc.kills)
				}
				if k.Restarts != uint64(tc.kills) {
					t.Errorf("restarts = %d, want %d", k.Restarts, tc.kills)
				}
				return
			}
			t.Fatal("no sink row in the report")
		})
	}
}

func liveRuns(s LiveStats, kernel string) uint64 {
	for _, k := range s.Kernels {
		if k.Name == kernel {
			return k.Runs
		}
	}
	panic(fmt.Sprintf("no kernel %q in LiveStats", kernel))
}
