package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRecordAndEventsOrder(t *testing.T) {
	r := NewRecorder(128)
	for i := int64(0); i < 10; i++ {
		r.Record(0, RunStart, i*10)
		r.Record(0, RunEnd, i*10+5)
	}
	evs := r.Events()
	if len(evs) != 20 {
		t.Fatalf("events = %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of order")
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
}

func TestShardWrapKeepsNewest(t *testing.T) {
	// One actor writes 100 events into its 64-slot shard: the shard keeps
	// the newest 64 and the cursor-derived drop count covers the rest.
	r := NewSharded(64, 1)
	for i := int64(0); i < 100; i++ {
		r.Record(0, RunStart, i)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("retained = %d, want 64", len(evs))
	}
	if evs[0].At != 36 || evs[63].At != 99 {
		t.Fatalf("window = [%d, %d], want [36, 99]", evs[0].At, evs[63].At)
	}
	if r.Dropped() != 36 {
		t.Fatalf("dropped = %d, want 36", r.Dropped())
	}
}

func TestMinimumCapacity(t *testing.T) {
	r := NewSharded(1, 1)
	if r.Cap() != 64 {
		t.Fatalf("capacity = %d, want clamped 64", r.Cap())
	}
	if s := NewSharded(1, 3); len(s.shards) != 4 {
		t.Fatalf("shards = %d, want rounded to 4", len(s.shards))
	}
}

func TestSpansPairing(t *testing.T) {
	r := NewRecorder(128)
	r.Record(0, RunStart, 0)
	r.Record(1, RunStart, 5) // interleaved kernels
	r.Record(0, RunEnd, 10)
	r.Record(1, RunEnd, 15)
	r.Record(0, RunStart, 20) // unmatched (still running)
	spans := pairSpans(r.Events())
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Actor != 0 || spans[0].Start != 0 || spans[0].End != 10 {
		t.Fatalf("span0 = %+v", spans[0])
	}
	if spans[1].Actor != 1 || spans[1].Start != 5 || spans[1].End != 15 {
		t.Fatalf("span1 = %+v", spans[1])
	}
}

func TestTimelineRendering(t *testing.T) {
	r := NewRecorder(256)
	// Kernel 0 busy the whole window; kernel 1 busy the second half only.
	r.Record(0, RunStart, 0)
	r.Record(0, RunEnd, 1000)
	r.Record(1, RunStart, 500)
	r.Record(1, RunEnd, 1000)
	out := r.Timeline([]string{"always", "latehalf"}, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline:\n%s", out)
	}
	if !strings.Contains(lines[1], "always") || !strings.Contains(lines[2], "latehalf") {
		t.Fatalf("names missing:\n%s", out)
	}
	row0 := lines[1][strings.IndexByte(lines[1], '|')+1:]
	row1 := lines[2][strings.IndexByte(lines[2], '|')+1:]
	// Kernel 0: every bucket fully shaded.
	if strings.Count(row0, "#") < 19 {
		t.Fatalf("always row underfilled: %q", row0)
	}
	// Kernel 1: first half blank, second half shaded.
	firstHalf := row1[:10]
	secondHalf := row1[10:20]
	if strings.Count(firstHalf, " ") < 9 {
		t.Fatalf("latehalf first half = %q", firstHalf)
	}
	if strings.Count(secondHalf, "#") < 9 {
		t.Fatalf("latehalf second half = %q", secondHalf)
	}
}

func TestTimelineOverlaysDecisions(t *testing.T) {
	r := NewRecorder(256)
	r.Record(0, RunStart, 0)
	r.Record(0, RunEnd, 1000)
	r.Emit(Event{Actor: -1, Kind: QueueGrow, At: 250, Prev: 64, Arg: 256, Label: "a->b"})
	r.Emit(Event{Actor: -1, Kind: BatchUp, At: 750, Prev: 1, Arg: 4, Label: "a->b"})
	r.Emit(Event{Actor: 0, Kind: Restart, At: 500, Arg: 1})
	out := r.Timeline([]string{"worker"}, 20)
	if !strings.Contains(out, "monitor decisions") {
		t.Fatalf("no decisions row:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var workerRow, decRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "worker") {
			workerRow = l
		}
		if strings.HasPrefix(l, "monitor decisions") {
			decRow = l
		}
	}
	if !strings.Contains(workerRow, "R") {
		t.Fatalf("restart not marked on kernel row: %q", workerRow)
	}
	if !strings.Contains(decRow, "G") || !strings.Contains(decRow, "B") {
		t.Fatalf("grow/batch not on decisions row: %q", decRow)
	}
}

func TestTimelineEmpty(t *testing.T) {
	r := NewRecorder(64)
	if !strings.Contains(r.Timeline(nil, 40), "no complete spans") {
		t.Fatal("empty timeline message")
	}
}

// TestConcurrentWraparoundAccounting hammers the bus from many goroutines
// — some on distinct actors (distinct shards), some deliberately sharing
// one shard — far past capacity, then checks retained + dropped equals
// the number of events emitted. Run under -race this is also the
// writer/writer and writer/reader safety proof.
func TestConcurrentWraparoundAccounting(t *testing.T) {
	r := NewSharded(512, 4)
	const perG, writers = 2000, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A concurrent reader merging mid-flight must never see torn events.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Events() {
				if e.Kind != RunStart && e.Kind != RunEnd {
					t.Error("torn event")
					return
				}
			}
			r.Dropped()
		}
	}()
	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			// Even goroutines get distinct actors; odd ones all share
			// actor 1 so one shard sees true multi-writer contention.
			actor := int32(1)
			if g%2 == 0 {
				actor = int32(g * 4)
			}
			for i := int64(0); i < perG; i++ {
				kind := RunStart
				if i%2 == 1 {
					kind = RunEnd
				}
				r.Record(actor, kind, i)
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	total := uint64(perG * writers)
	got := uint64(r.Len()) + r.Dropped()
	if got != total {
		t.Fatalf("retained+dropped = %d, want %d", got, total)
	}
}

// TestShardedMergeOrder is the merge-order property test: events emitted
// across many actors with pseudo-random timestamps come back globally
// non-decreasing in At, and same-actor ties preserve emission order.
func TestShardedMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := NewSharded(4096, 8)
	type emitted struct {
		at  int64
		seq int64
	}
	perActor := map[int32][]emitted{}
	for i := 0; i < 2000; i++ {
		actor := int32(rng.Intn(16))
		at := int64(rng.Intn(50)) // dense ties on purpose
		r.Emit(Event{Actor: actor, Kind: RunStart, At: at, Arg: int64(i)})
		perActor[actor] = append(perActor[actor], emitted{at, int64(i)})
	}
	evs := r.Events()
	if len(evs) != 2000 {
		t.Fatalf("retained %d, want 2000", len(evs))
	}
	lastSeq := map[int32]map[int64]int64{}
	for i, e := range evs {
		if i > 0 && e.At < evs[i-1].At {
			t.Fatalf("merge out of order at %d: %d < %d", i, e.At, evs[i-1].At)
		}
		// Within one actor and one timestamp, emission order survives
		// the stable sort.
		if lastSeq[e.Actor] == nil {
			lastSeq[e.Actor] = map[int64]int64{}
		}
		if prev, ok := lastSeq[e.Actor][e.At]; ok && e.Arg < prev {
			t.Fatalf("actor %d ts %d: seq %d after %d", e.Actor, e.At, e.Arg, prev)
		}
		lastSeq[e.Actor][e.At] = e.Arg
	}
}

func TestKindStrings(t *testing.T) {
	for k := RunStart; k <= Deadlock; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if !QueueGrow.Instant() || RunStart.Instant() || RunEnd.Instant() {
		t.Fatal("Instant misclassifies")
	}
}

func TestChromeTraceGolden(t *testing.T) {
	r := NewSharded(256, 2)
	r.Record(0, RunStart, 1000)
	r.Record(0, RunEnd, 3500)
	r.Record(1, RunStart, 2000)
	r.Record(1, RunEnd, 6000)
	r.Emit(Event{Actor: -1, Kind: QueueGrow, At: 2500, Prev: 64, Arg: 256, Label: "gen:out -> work:in"})
	r.Emit(Event{Actor: 1, Kind: Restart, At: 4000, Arg: 1})
	r.Emit(Event{Actor: -1, Kind: BatchUp, At: 5000, Prev: 1, Arg: 4, Label: "work:out -> sink:in"})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, []string{"gen", "work"}); err != nil {
		t.Fatal(err)
	}

	// Must be well-formed JSON with the expected track structure.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var spans, instants, metas int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	if spans != 2 || instants != 3 || metas != 3 {
		t.Fatalf("spans=%d instants=%d metas=%d\n%s", spans, instants, metas, buf.String())
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestTimelineGoldenWithMarkerLane pins the full ASCII timeline layout —
// kernel rows, the monitor-decisions row (including a gateway shed), and
// the latency-marker lane with all four lifecycle characters — against a
// golden file, so rendering drift is a reviewed diff, not an accident.
func TestTimelineGoldenWithMarkerLane(t *testing.T) {
	r := NewRecorder(256)
	r.Record(0, RunStart, 0)
	r.Record(0, RunEnd, 1000)
	r.Record(1, RunStart, 200)
	r.Record(1, RunEnd, 900)
	r.Emit(Event{Actor: -1, Kind: QueueGrow, At: 150, Prev: 64, Arg: 256, Label: "gen.out->work.in"})
	r.Emit(Event{Actor: -1, Kind: Shed, At: 450, Arg: 64, Label: "flood/logs"})
	r.Emit(Event{Actor: 0, Kind: MarkStamp, At: 100, Arg: 7, Label: "tenant/src"})
	r.Emit(Event{Actor: 1, Kind: MarkHop, At: 500, Prev: 3, Arg: 7, Label: "gen.out->work.in"})
	r.Emit(Event{Actor: 1, Kind: MarkRetire, At: 800, Prev: 7, Arg: 700, Label: "tenant/src"})
	r.Emit(Event{Actor: -1, Kind: SLOBreach, At: 850, Prev: 7, Arg: 700, Label: "tenant/src"})

	out := r.Timeline([]string{"gen", "work"}, 20)
	var markerRow string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "latency markers") {
			markerRow = l
		}
	}
	if markerRow == "" {
		t.Fatalf("no latency-marker lane:\n%s", out)
	}
	for _, ch := range []string{"S", "+", "M", "L"} {
		if !strings.Contains(markerRow, ch) {
			t.Fatalf("marker lane missing %q: %q", ch, markerRow)
		}
	}

	golden := filepath.Join("testdata", "timeline_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if out != string(want) {
		t.Fatalf("timeline drifted from golden:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

// TestMarkerRetirementSurvivesBusWrap drives marker lifecycles through a
// deliberately tiny trace bus until its shards overwrite slots many times:
// the bus may lose marker *events* (it is a bounded ring by design), but
// retirement accounting lives in the MarkerDomain, so every stamped marker
// must still be counted, with exact flow and stage statistics.
func TestMarkerRetirementSurvivesBusWrap(t *testing.T) {
	r := NewSharded(64, 1) // one 64-slot shard: guaranteed wraparound
	d := NewMarkerDomain(1)
	const n = 500
	for i := 0; i < n; i++ {
		now := int64(i * 100)
		m := d.Stamp("tenant", "src", now)
		r.Emit(Event{Actor: 0, Kind: MarkStamp, At: now, Arg: int64(m.ID), Label: m.Flow()})
		m.EndTransit("gen.out->sink.in", now+30)
		r.Emit(Event{Actor: 1, Kind: MarkHop, At: now + 30, Arg: int64(m.ID), Label: "gen.out->sink.in"})
		e2e := d.Retire(m, now+70)
		r.Emit(Event{Actor: 1, Kind: MarkRetire, At: now + 70, Prev: int64(m.ID), Arg: int64(e2e), Label: m.Flow()})
	}
	if r.Dropped() == 0 {
		t.Fatal("bus never wrapped — the test exercised nothing")
	}
	if got := d.Retired(); got != n {
		t.Fatalf("retired = %d, want %d (bus overwrites leaked into marker accounting)", got, n)
	}
	flows := d.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %+v", flows)
	}
	f := flows[0]
	if f.Tenant != "tenant" || f.Source != "src" || f.Count != n {
		t.Fatalf("flow = %+v, want tenant/src count %d", f, n)
	}
	if f.SumNs != int64(n*70) || f.MaxNs != 70 {
		t.Fatalf("flow sum/max = %d/%d, want %d/70", f.SumNs, f.MaxNs, n*70)
	}
	var hops uint64
	for _, s := range d.Stages() {
		if s.Stage == "gen.out->sink.in" {
			hops = s.Count
		}
	}
	if hops != n {
		t.Fatalf("stage hops = %d, want %d", hops, n)
	}
}

func TestRecorderConcurrentRetention(t *testing.T) {
	r := NewSharded(1024, 8)
	var wg sync.WaitGroup
	for k := int32(0); k < 4; k++ {
		wg.Add(1)
		go func(k int32) {
			defer wg.Done()
			for i := int64(0); i < 500; i++ {
				r.Record(k, RunStart, i)
				r.Record(k, RunEnd, i+1)
			}
		}(k)
	}
	wg.Wait()
	// 4 actors × 1000 events, distinct shards of 128 slots each: each
	// shard wraps, retaining 128.
	if got := len(r.Events()); got != 4*128 {
		t.Fatalf("retained %d, want %d", got, 4*128)
	}
	if r.Dropped() != 4*(1000-128) {
		t.Fatalf("dropped = %d", r.Dropped())
	}
}
