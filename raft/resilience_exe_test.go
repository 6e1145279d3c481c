package raft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// flakyDouble doubles each input but panics on chosen input values. It
// checkpoints its processed-count so restarts are observable.
type flakyDouble struct {
	KernelBase
	panicOn   map[int64]bool
	processed uint64
}

func newFlakyDouble(panicOn ...int64) *flakyDouble {
	k := &flakyDouble{panicOn: map[int64]bool{}}
	for _, v := range panicOn {
		k.panicOn[v] = true
	}
	AddInput[int64](k, "in")
	AddOutput[int64](k, "out")
	return k
}

func (f *flakyDouble) Run() Status {
	v, err := Pop[int64](f.In("in"))
	if err != nil {
		return Stop
	}
	if f.panicOn[v] {
		delete(f.panicOn, v) // succeed on retry: a transient fault
		panic(fmt.Sprintf("flaky: cannot handle %d", v))
	}
	f.processed++
	if err := Push(f.Out("out"), 2*v); err != nil {
		return Stop
	}
	return Proceed
}

func (f *flakyDouble) Snapshot() ([]byte, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], f.processed)
	return b[:], nil
}

func (f *flakyDouble) Restore(snap []byte) error {
	if len(snap) != 8 {
		return fmt.Errorf("bad snapshot length %d", len(snap))
	}
	f.processed = binary.LittleEndian.Uint64(snap)
	return nil
}

func TestSupervisionRecoversKernelPanicLosslessly(t *testing.T) {
	// Injected kills fire at the top of Run, before the kernel pops any
	// input, so a supervised run must deliver every element exactly once —
	// the lossless-recovery property the chaos tests depend on.
	m := NewMap()
	flaky := newFlakyDouble() // no intrinsic panics; the injector provides them
	sink := newCollect()
	if _, err := m.Link(newGen(50), flaky); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(flaky, sink); err != nil {
		t.Fatal(err)
	}

	inj := NewFaultInjector()
	inj.KillKernel("flakyDouble", 10) // 10th invocation dies pre-pop
	inj.KillKernel("flakyDouble", 25)

	rep, err := m.Exe(
		WithSupervision(SupervisionPolicy{InitialBackoff: time.Microsecond}),
		WithFaultInjection(inj),
	)
	if err != nil {
		t.Fatalf("Exe: %v", err)
	}
	got := sink.values()
	if len(got) != 50 {
		t.Fatalf("collected %d values, want 50 (injected kills must be lossless)", len(got))
	}
	for i, v := range got {
		if v != int64(2*i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, 2*i)
		}
	}
	if inj.Fired("kill") != 2 {
		t.Fatalf("kills fired = %d, want 2", inj.Fired("kill"))
	}

	// Report surfaces the restarts.
	var restarts uint64
	for _, k := range rep.Kernels {
		if strings.HasPrefix(k.Name, "flakyDouble") {
			restarts = k.Restarts
		}
	}
	if restarts != 2 {
		t.Fatalf("KernelReport.Restarts = %d, want 2", restarts)
	}
	if len(rep.Recoveries) != 2 {
		t.Fatalf("Report.Recoveries has %d events, want 2", len(rep.Recoveries))
	}
	if !strings.Contains(rep.String(), "recoveries") {
		t.Fatal("report text missing recoveries section")
	}
}

func TestSupervisionKernelOwnPanicsRecovered(t *testing.T) {
	m := NewMap()
	flaky := newFlakyDouble(3, 11) // panics once each on inputs 3 and 11
	sink := newCollect()
	if _, err := m.Link(newGen(20), flaky); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(flaky, sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe(WithSupervision(SupervisionPolicy{InitialBackoff: time.Microsecond}))
	if err != nil {
		t.Fatalf("Exe: %v", err)
	}
	// Values 3 and 11 were popped before the panic, so they are consumed;
	// supervised restart continues with the next element. 18 survivors.
	got := sink.values()
	if len(got) != 18 {
		t.Fatalf("collected %d values, want 18", len(got))
	}
	for _, v := range got {
		if v == 6 || v == 22 {
			t.Fatalf("value %d should have been lost with its panicking input", v)
		}
	}
}

func TestSupervisionExhaustionEscalates(t *testing.T) {
	m := NewMap()
	dead := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		panic("permanently broken")
	})
	if _, err := m.Link(newGen(10), dead); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(dead, newCollect()); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe(WithSupervision(SupervisionPolicy{MaxRestarts: 2, InitialBackoff: time.Microsecond}))
	if err == nil {
		t.Fatal("Exe succeeded despite a permanently failing kernel")
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("err %v does not wrap ErrRetriesExhausted", err)
	}
	if !errors.Is(err, ErrKernelPanicked) {
		t.Errorf("err %v does not wrap ErrKernelPanicked", err)
	}
}

func TestCheckpointStoreCrossExecutionResume(t *testing.T) {
	dir := t.TempDir()

	run := func(kills ...uint64) uint64 {
		m := NewMap()
		flaky := newFlakyDouble()
		flaky.SetName("dbl")
		sink := newCollect()
		if _, err := m.Link(newGen(30), flaky); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Link(flaky, sink); err != nil {
			t.Fatal(err)
		}
		store, err := NewFileCheckpointStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		opts := []Option{
			WithSupervision(SupervisionPolicy{InitialBackoff: time.Microsecond}),
			WithCheckpointStore(store),
		}
		if len(kills) > 0 {
			inj := NewFaultInjector()
			for _, at := range kills {
				inj.KillKernel("dbl", at)
			}
			opts = append(opts, WithFaultInjection(inj))
		}
		if _, err := m.Exe(opts...); err != nil {
			t.Fatal(err)
		}
		return flaky.processed
	}

	if got := run(5); got != 30 {
		t.Fatalf("first run processed %d, want 30", got)
	}
	// A second execution over the same checkpoint directory resumes the
	// persisted counter: Init restores processed=30, then 30 more inputs.
	if got := run(); got != 60 {
		t.Fatalf("resumed run processed %d, want 60 (cross-execution resume)", got)
	}
}

func TestUnsupervisedFaultInjectionAborts(t *testing.T) {
	m := NewMap()
	dbl := newFlakyDouble()
	if _, err := m.Link(newGen(10), dbl); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(dbl, newCollect()); err != nil {
		t.Fatal(err)
	}
	inj := NewFaultInjector()
	inj.KillKernel("flakyDouble", 3)
	_, err := m.Exe(WithFaultInjection(inj))
	if err == nil {
		t.Fatal("Exe succeeded despite unsupervised injected kill")
	}
	if !errors.Is(err, ErrKernelPanicked) {
		t.Errorf("err %v does not wrap ErrKernelPanicked", err)
	}
}

func TestObserverSeesRestarts(t *testing.T) {
	m := NewMap()
	flaky := newFlakyDouble(2)
	sink := newCollect()
	if _, err := m.Link(newGen(2000), flaky); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(flaky, sink); err != nil {
		t.Fatal(err)
	}
	var sawRestart bool
	_, err := m.Exe(
		WithSupervision(SupervisionPolicy{InitialBackoff: time.Microsecond}),
		WithObserver(time.Millisecond, func(ls LiveStats) {
			for _, k := range ls.Kernels {
				if k.Restarts > 0 {
					sawRestart = true
				}
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !sawRestart {
		t.Fatal("observer never saw a nonzero LiveKernel.Restarts")
	}
}
