package monitor

import (
	"testing"
	"time"

	"raftlib/internal/core"
	"raftlib/internal/qmodel"
	"raftlib/internal/ringbuffer"
)

func mkLink(capacity int, maxCap int) (*core.LinkInfo, *ringbuffer.Ring[int]) {
	r := ringbuffer.NewRing[int](capacity)
	if maxCap > 0 {
		r.SetMaxCap(maxCap)
	}
	return &core.LinkInfo{Name: "l", Queue: r, ResizeEnabled: true, MaxCap: maxCap}, r
}

// TestConfigDefaults pins the paper's monitor constants (§4.1): a 10 µs
// tick, a grow after the writer blocked for 3δ, and capacity doubled.
func TestConfigDefaults(t *testing.T) {
	if Delta != 10*time.Microsecond || blockFactor != 3 || growFactor != 2 {
		t.Fatalf("δ = %v, block factor %d, grow factor %d; want 10µs, 3, 2", Delta, blockFactor, growFactor)
	}
}

func TestTickSamplesOccupancy(t *testing.T) {
	li, r := mkLink(4, 0)
	for i := 0; i < 3; i++ {
		if err := r.Push(i, ringbuffer.SigNone); err != nil {
			t.Fatal(err)
		}
	}
	m := newMon(Config{}, []*core.LinkInfo{li}, nil)
	m.Tick()
	m.Tick()
	if li.Occupancy.StarvedFraction() != 0 || li.Occupancy.FullFraction() != 0 {
		t.Fatalf("starved %v, full %v of a 3/4 ring, want 0 and 0",
			li.Occupancy.StarvedFraction(), li.Occupancy.FullFraction())
	}
	if li.Occupancy.Mean() != 3 {
		t.Fatalf("mean occupancy = %v, want 3", li.Occupancy.Mean())
	}
}

func TestWriteBlockTriggersGrow(t *testing.T) {
	li, r := mkLink(1, 0)
	if err := r.Push(0, ringbuffer.SigNone); err != nil {
		t.Fatal(err)
	}
	// Block a producer.
	done := make(chan error, 1)
	go func() { done <- r.Push(1, ringbuffer.SigNone) }()
	for r.WriterBlockedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	// Wait until the block age exceeds 3δ, then tick manually.
	cfg := Config{Resize: true}
	m := newMon(cfg, []*core.LinkInfo{li}, nil)
	time.Sleep(time.Millisecond)
	m.Tick()
	if r.Cap() != 2 {
		t.Fatalf("cap after grow = %d, want 2", r.Cap())
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	evs := m.Events()
	if len(evs) != 1 || evs[0].Kind != "grow" || evs[0].From != 1 || evs[0].To != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if m.Resizes() != 1 {
		t.Fatalf("resizes = %d", m.Resizes())
	}
}

func TestGrowRespectsMaxCap(t *testing.T) {
	li, r := mkLink(2, 2) // already at the cap
	_ = r.Push(0, ringbuffer.SigNone)
	_ = r.Push(1, ringbuffer.SigNone)
	go func() { _ = r.Push(2, ringbuffer.SigNone) }()
	for r.WriterBlockedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	m := newMon(Config{Resize: true}, []*core.LinkInfo{li}, nil)
	time.Sleep(time.Millisecond)
	m.Tick()
	if r.Cap() != 2 {
		t.Fatalf("cap = %d, must not exceed MaxCap", r.Cap())
	}
	r.Close()
}

func TestViewHoldSkipsResize(t *testing.T) {
	li, r := mkLink(1, 0)
	_ = r.Push(0, ringbuffer.SigNone)
	go func() { _ = r.Push(1, ringbuffer.SigNone) }()
	for r.WriterBlockedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	// Borrow a view over the single stored element: the monitor must not
	// resize while the borrow pins the storage epoch, even though the
	// write-side grow rule has fired.
	v, err := r.TryAcquireView(1)
	if err != nil || v.Len() != 1 {
		t.Fatalf("view = %v (len %d)", err, v.Len())
	}
	m := newMon(Config{Resize: true}, []*core.LinkInfo{li}, nil)
	time.Sleep(time.Millisecond)
	m.Tick()
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, monitor resized under an outstanding view", r.Cap())
	}
	// Release and re-tick: the same evidence must now take effect.
	r.ReleaseView(1)
	m.Tick()
	if r.Cap() != 2 {
		t.Fatalf("cap after release = %d, want 2", r.Cap())
	}
	r.Close()
}

// TestWindowDefersResize states how the monitor treats a port window
// (ringbuffer/window.go): it is not a held view, so the write-side rule
// fires while a read window is out, and the grow reaches a parked producer
// at once — the window reads on in the sealed store. A resize that meets
// the producer's open write window waits for its commit, and the monitor
// does not ask for it again meanwhile.
func TestWindowDefersResize(t *testing.T) {
	li, r := mkLink(4, 0)
	for i := 0; i < 4; i++ {
		_ = r.Push(i, ringbuffer.SigNone)
	}
	// The consumer opens a read window over half the ring and stops midway.
	if v, _, released, ok, err := r.PopWindowed(64, true); v != 0 || released != 0 || !ok || err != nil {
		t.Fatalf("first pop = %d (released %d, ok %v, err %v)", v, released, ok, err)
	}
	if r.ViewHeldFor() != 0 {
		t.Fatal("a port window reports a hold time")
	}
	pushed := make(chan error)
	go func() { pushed <- r.Push(4, ringbuffer.SigNone) }()
	for r.WriterBlockedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	m := newMon(Config{Resize: true}, []*core.LinkInfo{li}, nil)
	time.Sleep(time.Millisecond)
	m.Tick()
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	m.Tick()
	if got := len(m.Events()); r.Cap() != 8 || got != 1 || r.ResizePending() {
		t.Fatalf("two ticks under an open read window: cap %d, %d grow events, pending %v; want 8, 1, false",
			r.Cap(), got, r.ResizePending())
	}
	if n := r.ReleaseWindow(); n != 1 {
		t.Fatalf("release = %d", n)
	}
	for want := 1; want <= 4; want++ {
		if v, _, err := r.Pop(); err != nil || v != want {
			t.Fatalf("pop = %d, %v; want %d", v, err, want)
		}
	}

	// The producer's write window holds a resize up until its commit.
	if _, _, err := r.PushWindowed(5, ringbuffer.SigNone, 4, true); err != nil || r.WindowPos(true) != 1 {
		t.Fatalf("no write window opened: cursor %d, %v", r.WindowPos(true), err)
	}
	if err := r.Resize(16); err != nil || r.Cap() != 8 || !r.ResizePending() {
		t.Fatalf("resize under a write window: %v, cap %d, pending %v; want 8 and pending", err, r.Cap(), r.ResizePending())
	}
	m.Tick()
	if got := len(m.Events()); got != 1 {
		t.Fatalf("monitor acted on a link whose resize is pending: %d events", got)
	}
	if n := r.CommitWindow(); n != 1 || r.Cap() != 16 || r.ResizePending() {
		t.Fatalf("commit = %d: cap %d, pending %v; want 16 and applied", n, r.Cap(), r.ResizePending())
	}
}

func TestResizeDisabled(t *testing.T) {
	li, r := mkLink(1, 0)
	li.ResizeEnabled = false
	_ = r.Push(0, ringbuffer.SigNone)
	go func() { _ = r.Push(1, ringbuffer.SigNone) }()
	for r.WriterBlockedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	m := newMon(Config{Resize: true}, []*core.LinkInfo{li}, nil)
	time.Sleep(time.Millisecond)
	m.Tick()
	if r.Cap() != 1 {
		t.Fatalf("cap = %d; per-link disable ignored", r.Cap())
	}
	r.Close()
}

// fakeScaler commits every step at once, on the caller's goroutine; with
// stepping set it reports a step in flight and refuses new ones.
type fakeScaler struct {
	name     string
	active   int
	max      int
	in       *core.LinkInfo
	workers  []int32
	stepping bool
	steps    int
}

func (f *fakeScaler) Name() string              { return f.name }
func (f *fakeScaler) Active() int               { return f.active }
func (f *fakeScaler) Max() int                  { return f.max }
func (f *fakeScaler) Stepping() bool            { return f.stepping }
func (f *fakeScaler) InputLink() *core.LinkInfo { return f.in }
func (f *fakeScaler) WorkerActors() []int32     { return f.workers }

func (f *fakeScaler) Step(delta int, committed func(from, to int)) {
	if f.stepping {
		return
	}
	f.steps++
	from := f.active
	f.active += delta
	committed(from, f.active)
}

func TestAutoScaleUpOnPressure(t *testing.T) {
	li, r := mkLink(4, 4)
	li.ResizeEnabled = false
	for i := 0; i < 4; i++ { // keep the input queue full
		_ = r.Push(i, ringbuffer.SigNone)
	}
	sc := &fakeScaler{name: "grp", active: 1, max: 4, in: li}
	m := newMon(Config{AutoScale: true},
		[]*core.LinkInfo{li}, []core.Scaler{sc})
	for i := 0; i < scaleWindow; i++ {
		m.Tick()
	}
	if sc.active != 2 {
		t.Fatalf("active = %d, want scaled to 2", sc.active)
	}
	evs := m.Events()
	if len(evs) == 0 || evs[len(evs)-1].Kind != "scale-up" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestAutoScaleDownWhenIdle(t *testing.T) {
	li, _ := mkLink(4, 4)
	li.ResizeEnabled = false
	sc := &fakeScaler{name: "grp", active: 3, max: 4, in: li}
	m := newMon(Config{AutoScale: true},
		[]*core.LinkInfo{li}, []core.Scaler{sc})
	for i := 0; i < scaleWindow; i++ { // queue stays empty
		m.Tick()
	}
	if sc.active != 2 {
		t.Fatalf("active = %d, want scaled down to 2", sc.active)
	}
}

// TestAutoScaleSkipsGroupWhileStepping: a group whose width step is in
// flight gets no second one, however full its input — and the evidence
// gathered meanwhile is dropped, so the next window starts after the step.
func TestAutoScaleSkipsGroupWhileStepping(t *testing.T) {
	li, r := mkLink(4, 4)
	li.ResizeEnabled = false
	for i := 0; i < 4; i++ {
		_ = r.Push(i, ringbuffer.SigNone)
	}
	sc := &fakeScaler{name: "grp", active: 1, max: 4, in: li, stepping: true}
	m := newMon(Config{AutoScale: true},
		[]*core.LinkInfo{li}, []core.Scaler{sc})
	for i := 0; i < 2*scaleWindow; i++ {
		m.Tick()
	}
	if sc.steps != 0 || len(m.Events()) != 0 {
		t.Fatalf("%d steps, events %+v while a step was in flight", sc.steps, m.Events())
	}
	sc.stepping = false
	for i := 0; i < scaleWindow-1; i++ {
		m.Tick()
	}
	if sc.steps != 0 {
		t.Fatal("stepped before a full window had passed since the in-flight step")
	}
	m.Tick()
	if sc.steps != 1 || sc.active != 2 {
		t.Fatalf("steps %d, active %d after a full window: want one step to 2", sc.steps, sc.active)
	}
}

func TestAutoScaleNilInputLink(t *testing.T) {
	sc := &fakeScaler{name: "grp", active: 1, max: 4, in: nil}
	m := newMon(Config{AutoScale: true}, nil, []core.Scaler{sc})
	for i := 0; i < scaleWindow; i++ {
		m.Tick() // must not panic
	}
	if sc.active != 1 {
		t.Fatalf("active changed to %d with no input link", sc.active)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	li, _ := mkLink(4, 0)
	m := newMon(Config{}, []*core.LinkInfo{li}, nil)
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for m.Ticks() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("monitor loop did not tick")
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	n := m.Ticks()
	time.Sleep(5 * time.Millisecond)
	if m.Ticks() != n {
		t.Fatal("monitor ticked after Stop")
	}
}

// TestAdaptiveBatchGrowsUnderContention drives the batcher deterministically:
// a near-full queue with elements flowing must grow the link's batch ×4 each
// window, capped at min(BatchMax, cap/2).
func TestAdaptiveBatchGrowsUnderContention(t *testing.T) {
	li, r := mkLink(16, 0)
	li.ResizeEnabled = false
	li.Batch = &core.BatchControl{}
	for i := 0; i < 12; i++ { // >= cap/2 every tick
		_ = r.Push(i, ringbuffer.SigNone)
	}
	m := newMon(Config{AdaptiveBatch: true},
		[]*core.LinkInfo{li}, nil)
	for w := 0; w < 4; w++ {
		// Keep elements flowing so Pushes advances between windows.
		_, _, _, _ = r.TryPop()
		_ = r.Push(100+w, ringbuffer.SigNone)
		for i := 0; i < batchWindow; i++ {
			m.Tick()
		}
	}
	// 1 -> 4 -> 8, then capped at cap/2 = 8.
	if got := li.Batch.Get(); got != 8 {
		t.Fatalf("batch = %d, want 8 (cap/2)", got)
	}
	evs := m.Events()
	if len(evs) == 0 || evs[0].Kind != "batch-up" {
		t.Fatalf("events = %+v, want batch-up", evs)
	}
}

// TestAdaptiveBatchShrinksWhenIdle halves the batch once the link runs
// empty for a window.
func TestAdaptiveBatchShrinksWhenIdle(t *testing.T) {
	li, _ := mkLink(16, 0)
	li.ResizeEnabled = false
	li.Batch = &core.BatchControl{}
	li.Batch.Set(8)
	m := newMon(Config{AdaptiveBatch: true},
		[]*core.LinkInfo{li}, nil)
	for i := 0; i < batchWindow; i++ { // queue stays empty
		m.Tick()
	}
	if got := li.Batch.Get(); got != 4 {
		t.Fatalf("batch = %d, want halved to 4", got)
	}
	evs := m.Events()
	if len(evs) != 1 || evs[0].Kind != "batch-down" || evs[0].From != 8 || evs[0].To != 4 {
		t.Fatalf("events = %+v", evs)
	}
}

// TestAdaptiveBatchSkipsPinned leaves latency-priority (pinned) links alone.
func TestAdaptiveBatchSkipsPinned(t *testing.T) {
	li, r := mkLink(16, 0)
	li.ResizeEnabled = false
	li.Batch = &core.BatchControl{}
	li.Batch.Pin(1)
	for i := 0; i < 12; i++ {
		_ = r.Push(i, ringbuffer.SigNone)
	}
	m := newMon(Config{AdaptiveBatch: true},
		[]*core.LinkInfo{li}, nil)
	for i := 0; i < 5*batchWindow; i++ {
		_, _, _, _ = r.TryPop()
		_ = r.Push(100+i, ringbuffer.SigNone)
		m.Tick()
	}
	if got := li.Batch.Get(); got != 1 {
		t.Fatalf("pinned batch changed to %d", got)
	}
	if evs := m.Events(); len(evs) != 0 {
		t.Fatalf("events on pinned link: %+v", evs)
	}
}

// TestAdaptiveBatchNilControl must not panic on links without a control
// (hand-built LinkInfo).
func TestAdaptiveBatchNilControl(t *testing.T) {
	li, _ := mkLink(16, 0)
	li.ResizeEnabled = false
	m := newMon(Config{AdaptiveBatch: true},
		[]*core.LinkInfo{li}, nil)
	for i := 0; i < batchWindow; i++ {
		m.Tick()
	}
}

// primedEstimator builds a qmodel.Estimator for one link (index 0, dst
// kernel id 1) primed to a chosen utilization: each synthetic window moves
// n elements with the consumer blocked for blockedFrac of the window, so
// λ̂ = n/window and µ̂ = n/(window×(1−blockedFrac)), i.e. ρ̂ ≈ blockedFrac's
// complement. Windows are stamped an hour in the future so the monitor's
// own Tick(time.Now()) calls land before the estimator's last fold and
// cannot disturb the primed state.
func primedEstimator(t *testing.T, n uint64, blockedFrac float64, workerIDs ...int32) *qmodel.Estimator {
	t.Helper()
	if len(workerIDs) == 0 {
		workerIDs = []int32{1}
	}
	var runs, pushes, pops, blkR uint64
	kts := make([]qmodel.KernelTap, len(workerIDs))
	for i, id := range workerIDs {
		kts[i] = qmodel.KernelTap{Name: "k", ID: id, Runs: func() uint64 { return runs }}
	}
	lts := []qmodel.LinkTap{{
		Name: "l", Src: 0, Dst: workerIDs[0],
		Flow:  func() (uint64, uint64) { return pushes, pops },
		Block: func() (uint64, uint64) { return 0, blkR },
		Occ:   func() (uint64, float64) { return pushes, 0 },
		Len:   func() int { return 0 },
		Cap:   func() int { return 1024 },
	}}
	est := newEstimator(kts, lts)
	window := 2 * time.Millisecond
	now := time.Now().Add(time.Hour)
	est.Tick(now)
	for i := 0; i < 10; i++ {
		pushes += n
		pops += n
		runs += n
		blkR += uint64(blockedFrac * float64(window.Nanoseconds()))
		now = now.Add(window)
		est.Tick(now)
	}
	return est
}

// TestRateControlBatchUpOnHotLink: under rate control a link at ρ̂≈0.9
// grows its batch on the utilization signal alone — queue near-empty, no
// blocking evidence anywhere.
func TestRateControlBatchUpOnHotLink(t *testing.T) {
	est := primedEstimator(t, 1000, 0.1) // ρ̂ ≈ 0.9 > rhoGrow 0.7
	li, r := mkLink(16, 0)
	li.ResizeEnabled = false
	li.Batch = &core.BatchControl{}
	m := newMon(Config{AdaptiveBatch: true, Rates: est, RateControl: true},
		[]*core.LinkInfo{li}, nil)
	// Elements flow (moved > 0) but the queue never fills or blocks.
	_ = r.Push(1, ringbuffer.SigNone)
	_, _, _, _ = r.TryPop()
	for i := 0; i < batchWindow; i++ {
		m.Tick()
	}
	if got := li.Batch.Get(); got != 4 {
		t.Fatalf("batch = %d, want grown to 4 on ρ̂ alone", got)
	}
	evs := m.Events()
	if len(evs) != 1 || evs[0].Kind != "batch-up" {
		t.Fatalf("events = %+v", evs)
	}
}

// TestRateControlSuppressesStarvationNoise: consumer-starvation blocking
// counts as contended-window evidence, so the heuristic batches a link
// whose consumer is merely idle; the rate controller reads ρ̂≈0.25 and
// leaves the batch alone.
func TestRateControlSuppressesStarvationNoise(t *testing.T) {
	li, r := mkLink(16, 0)
	li.ResizeEnabled = false
	li.Batch = &core.BatchControl{}
	// Manufacture genuine read-block evidence: a consumer waits on the
	// empty ring until a push releases it.
	popped := make(chan error, 1)
	go func() {
		_, _, err := r.Pop()
		popped <- err
	}()
	for r.ReaderStarvedFor() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	_ = r.Push(1, ringbuffer.SigNone)
	if err := <-popped; err != nil {
		t.Fatal(err)
	}

	est := primedEstimator(t, 1000, 0.75) // ρ̂ ≈ 0.25 < rhoGrow
	rc := newMon(Config{AdaptiveBatch: true, Rates: est, RateControl: true},
		[]*core.LinkInfo{li}, nil)
	for i := 0; i < batchWindow; i++ {
		rc.Tick()
	}
	if got := li.Batch.Get(); got > 1 {
		t.Fatalf("rate controller batched an underloaded link: batch = %d", got)
	}

	// The same telemetry drives the heuristic to batch-up — the behavior
	// the discriminating controller exists to avoid.
	h := newMon(Config{AdaptiveBatch: true}, []*core.LinkInfo{li}, nil)
	for i := 0; i < batchWindow; i++ {
		h.Tick()
	}
	if got := li.Batch.Get(); got <= 1 {
		t.Fatalf("heuristic did not batch on blocking evidence: batch = %d", got)
	}
}

// TestRateWidthScalesUpTowardMMcTarget: with λ̂ near the per-replica µ̂,
// MinServersWait picks width 2 and the monitor steps up — even though the
// input queue is empty, which would have made the heuristic scale DOWN.
// The step is ±1 per window, never a slam to the target.
func TestRateWidthScalesUpTowardMMcTarget(t *testing.T) {
	est := primedEstimator(t, 1000, 0.05) // λ̂=500k, µ̂≈526k: ρ≈0.95
	li, _ := mkLink(16, 16)
	li.ResizeEnabled = false
	sc := &fakeScaler{name: "grp", active: 1, max: 4, in: li, workers: []int32{1}}
	m := newMon(Config{AutoScale: true, Rates: est, RateControl: true},
		[]*core.LinkInfo{li}, []core.Scaler{sc})
	for i := 0; i < scaleWindow; i++ {
		m.Tick()
	}
	if sc.active != 2 {
		t.Fatalf("active = %d, want stepped up to 2 on predicted wait", sc.active)
	}
	evs := m.Events()
	if len(evs) != 1 || evs[0].Kind != "scale-up" {
		t.Fatalf("events = %+v", evs)
	}
}

// TestRateWidthScalesDownWhenOverProvisioned: a lightly loaded group steps
// back toward the model's single-replica target one step per window.
func TestRateWidthScalesDownWhenOverProvisioned(t *testing.T) {
	est := primedEstimator(t, 100, 0.5) // λ̂=50k, µ̂=100k: c=1 suffices
	li, _ := mkLink(16, 16)
	li.ResizeEnabled = false
	sc := &fakeScaler{name: "grp", active: 3, max: 4, in: li, workers: []int32{1}}
	m := newMon(Config{AutoScale: true, Rates: est, RateControl: true},
		[]*core.LinkInfo{li}, []core.Scaler{sc})
	for i := 0; i < scaleWindow; i++ {
		m.Tick()
	}
	if sc.active != 2 {
		t.Fatalf("active = %d after one window, want 2 (±1 stepping)", sc.active)
	}
	for i := 0; i < scaleWindow; i++ {
		m.Tick()
	}
	if sc.active != 1 {
		t.Fatalf("active = %d after two windows, want 1", sc.active)
	}
}

// TestRateWidthFallsBackUnprimed: an unprimed estimator must leave the
// decision to the contended-window heuristic (here: empty queue, scale
// down), not freeze the group.
func TestRateWidthFallsBackUnprimed(t *testing.T) {
	est := newEstimator(
		[]qmodel.KernelTap{{Name: "k", ID: 1, Runs: func() uint64 { return 0 }}},
		[]qmodel.LinkTap{{Name: "l", Src: 0, Dst: 1,
			Flow: func() (uint64, uint64) { return 0, 0 },
			Occ:  func() (uint64, float64) { return 0, 0 },
			Len:  func() int { return 0 },
			Cap:  func() int { return 16 }}})
	li, _ := mkLink(4, 4)
	li.ResizeEnabled = false
	sc := &fakeScaler{name: "grp", active: 3, max: 4, in: li, workers: []int32{1}}
	m := newMon(Config{AutoScale: true, Rates: est, RateControl: true},
		[]*core.LinkInfo{li}, []core.Scaler{sc})
	for i := 0; i < scaleWindow; i++ {
		m.Tick()
	}
	if sc.active != 2 {
		t.Fatalf("active = %d, want heuristic scale-down to 2", sc.active)
	}
}

// newMon is a monitor to which one transaction handed links.
func newMon(cfg Config, links []*core.LinkInfo, scalers []core.Scaler) *Monitor {
	m := New(cfg, scalers)
	m.AddLinks(links)
	return m
}

// newEstimator is an estimator one transaction handed kernels and links.
func newEstimator(kernels []qmodel.KernelTap, links []qmodel.LinkTap) *qmodel.Estimator {
	e := qmodel.NewEstimator()
	e.Add(kernels, links)
	return e
}

// TestLinksJoinAndLeaveInBatches: each transaction's links join the
// sampling loop in one publication, and removed links leave it.
func TestLinksJoinAndLeaveInBatches(t *testing.T) {
	a, _ := mkLink(4, 0)
	b, _ := mkLink(4, 0)
	c, _ := mkLink(4, 0)
	m := newMon(Config{}, []*core.LinkInfo{a}, nil)
	m.AddLinks([]*core.LinkInfo{b, c})
	if len(m.links) != 3 || m.links[1].l != b || m.links[2].l != c {
		t.Fatalf("links after two batches: %d", len(m.links))
	}
	m.RemoveLinks([]*core.LinkInfo{a, c})
	if len(m.links) != 1 || m.links[0].l != b {
		t.Fatalf("links after removal: %d", len(m.links))
	}
	m.Tick()
}
