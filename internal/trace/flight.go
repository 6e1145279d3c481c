package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// FlightRecorder turns the always-on trace bus into a post-mortem
// artifact: when an anomaly fires — deadlock detection, a supervisor
// escalation, a shed storm at the gateway, or an e2e-latency SLO breach —
// it dumps the retained events as a self-contained Chrome trace plus a
// text post-mortem (recent events, per-flow latency, per-stage residence,
// recently retired markers) into <base>.flightdump/. The bus and the
// marker domain are the bounded always-on rings; the recorder only adds a
// trigger tap and the dump path, so steady-state cost is zero beyond the
// bus itself.
//
// Dumps are gated by a CAS'd cooldown so an anomaly storm produces one
// artifact, not a disk flood; a later trigger past the cooldown
// overwrites the dump with fresher state (the newest anomaly is the one
// the operator wants).
type FlightRecorder struct {
	dir        string
	rec        *Recorder
	dom        *MarkerDomain
	names      func() []string
	cooldownNs int64

	lastNs  atomic.Int64
	dumping atomic.Bool
	dumps   atomic.Uint64

	// Shed-storm detection: a sliding one-second window of Shed events.
	shedWinStart atomic.Int64
	shedCount    atomic.Int64
}

// Shed-storm threshold: this many gateway sheds inside one window
// constitutes an anomaly worth an artifact.
const (
	shedStormN        = 64
	shedStormWindowNs = int64(time.Second)
)

// NewFlightRecorder returns a recorder dumping into <base>.flightdump/
// (base used verbatim when it already carries the suffix). dom may be nil
// (no marker sections in the post-mortem). names, read at each dump, is
// the actor-name table of the trace tracks, indexed by actor id, so an
// actor that joined after the recorder was built is named too.
func NewFlightRecorder(base string, rec *Recorder, dom *MarkerDomain, names func() []string) *FlightRecorder {
	dir := base
	if !strings.HasSuffix(dir, ".flightdump") {
		dir += ".flightdump"
	}
	return &FlightRecorder{
		dir: dir, rec: rec, dom: dom, names: names,
		cooldownNs: int64(10 * time.Second),
	}
}

// Dir returns the dump directory path.
func (f *FlightRecorder) Dir() string { return f.dir }

// Dumps returns how many artifacts have been written.
func (f *FlightRecorder) Dumps() uint64 { return f.dumps.Load() }

// Observe is the trigger tap, installed as the trace bus watcher: it
// classifies instant events and fires a dump on anomalies. Cheap for
// non-anomalous kinds (one switch).
func (f *FlightRecorder) Observe(e Event) {
	switch e.Kind {
	case Deadlock:
		f.Trigger("deadlock detected (target " + e.Label + ")")
	case Escalate:
		f.Trigger(fmt.Sprintf("supervisor escalation after %d restarts (actor %d %s)",
			e.Arg, e.Actor, e.Label))
	case SLOBreach:
		f.Trigger(fmt.Sprintf("e2e latency SLO breach: %v on flow %s (marker %d)",
			time.Duration(e.Arg).Round(time.Microsecond), e.Label, e.Prev))
	case Shed:
		now := e.At
		start := f.shedWinStart.Load()
		if now-start > shedStormWindowNs {
			if f.shedWinStart.CompareAndSwap(start, now) {
				f.shedCount.Store(0)
			}
		}
		if f.shedCount.Add(1) == shedStormN {
			f.Trigger(fmt.Sprintf("shed storm: %d admissions shed within %v (last flow %s)",
				shedStormN, time.Duration(shedStormWindowNs), e.Label))
		}
	}
}

// Trigger fires one dump for the given reason, unless inside the cooldown
// or a dump is already in progress. Returns the artifact directory and
// whether a dump was written. Synchronous: triggers come from anomaly
// paths, never the data hot path.
func (f *FlightRecorder) Trigger(reason string) (string, bool) {
	now := time.Now().UnixNano()
	last := f.lastNs.Load()
	if last != 0 && now-last < f.cooldownNs {
		return f.dir, false
	}
	if !f.lastNs.CompareAndSwap(last, now) {
		return f.dir, false
	}
	if !f.dumping.CompareAndSwap(false, true) {
		return f.dir, false
	}
	defer f.dumping.Store(false)
	if err := f.dump(reason, now); err != nil {
		// A failed dump must never take the run down with it; surface on
		// stderr and move on.
		fmt.Fprintf(os.Stderr, "raft: flight recorder: %v\n", err)
		return f.dir, false
	}
	f.dumps.Add(1)
	return f.dir, true
}

// dump writes trace.json + postmortem.txt into the artifact directory.
func (f *FlightRecorder) dump(reason string, now int64) error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	names := f.names()
	events := f.rec.Events()

	tf, err := os.Create(filepath.Join(f.dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := WriteChrome(tf, events, names); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "flight recorder post-mortem\n")
	fmt.Fprintf(&sb, "trigger:  %s\n", reason)
	fmt.Fprintf(&sb, "captured: %s\n", time.Unix(0, now).Format(time.RFC3339Nano))
	fmt.Fprintf(&sb, "events:   %d retained (%d older overwritten)\n\n",
		len(events), f.rec.Dropped())
	if f.dom != nil {
		if s := f.dom.Summary(); s != "" {
			sb.WriteString(s)
			sb.WriteString("\n")
		}
		if recent := f.dom.Recent(); len(recent) > 0 {
			sb.WriteString("recently retired markers (oldest first):\n")
			for _, m := range recent {
				fmt.Fprintf(&sb, "  #%d %s e2e=%v\n", m.ID, m.Flow(),
					time.Duration(m.E2ENs()).Round(time.Microsecond))
				for _, h := range m.Hops {
					fmt.Fprintf(&sb, "      %-34.34s queue=%-10v kernel=%v\n", h.Stage,
						time.Duration(h.QueueNs).Round(time.Microsecond),
						time.Duration(h.KernelNs).Round(time.Microsecond))
				}
			}
			sb.WriteString("\n")
		}
	}
	sb.WriteString("last events (newest last):\n")
	tail := events
	if len(tail) > 200 {
		tail = tail[len(tail)-200:]
	}
	for _, e := range tail {
		name := fmt.Sprintf("actor-%d", e.Actor)
		if e.Actor < 0 {
			name = "runtime"
		} else if int(e.Actor) < len(names) && names[e.Actor] != "" {
			name = names[e.Actor]
		}
		fmt.Fprintf(&sb, "  %s %-14s %-12s prev=%-8d arg=%-8d %s\n",
			time.Unix(0, e.At).Format("15:04:05.000000"), name, e.Kind, e.Prev, e.Arg, e.Label)
	}
	return os.WriteFile(filepath.Join(f.dir, "postmortem.txt"), []byte(sb.String()), 0o644)
}
