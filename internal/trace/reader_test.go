package trace

import "testing"

func TestReaderIncrementalPoll(t *testing.T) {
	r := NewRecorder(128)
	r.Record(0, RunStart, 1)
	r.Record(0, RunEnd, 2)

	rd := r.NewReader()
	// Reader starts at the current end: pre-existing events are invisible.
	if n := rd.Poll(func(Event) {}); n != 0 {
		t.Fatalf("first poll delivered %d pre-existing events", n)
	}

	r.Record(0, RunStart, 3)
	r.Record(0, RunEnd, 4)
	var got []Event
	if n := rd.Poll(func(e Event) { got = append(got, e) }); n != 2 {
		t.Fatalf("poll delivered %d, want 2", n)
	}
	if got[0].At != 3 || got[1].At != 4 {
		t.Fatalf("events = %+v", got)
	}
	// Nothing new: next poll is empty.
	if n := rd.Poll(func(Event) {}); n != 0 {
		t.Fatal("re-delivered events")
	}
}

func TestReaderWraparoundDeliversRetained(t *testing.T) {
	r := NewSharded(64, 1) // one shard, 64 slots
	rd := r.NewReader()
	const emitted = 200
	for i := int64(0); i < emitted; i++ {
		r.Record(0, RunStart, i)
	}
	n := rd.Poll(func(Event) {})
	if n != 64 {
		t.Fatalf("delivered %d, want the retained 64", n)
	}
}

func TestReaderSpansAcrossPolls(t *testing.T) {
	r := NewRecorder(128)
	rd := r.NewReader()

	// RunStart lands in one poll, RunEnd in the next: the pairing must
	// carry the open span across the poll boundary.
	r.Record(7, RunStart, 100)
	if n := rd.PollSpans(func(Span) {}); n != 0 {
		t.Fatal("half a span delivered")
	}
	r.Record(7, RunEnd, 130)
	var spans []Span
	if n := rd.PollSpans(func(s Span) { spans = append(spans, s) }); n != 1 {
		t.Fatalf("spans delivered = %d, want 1", n)
	}
	if s := spans[0]; s.Actor != 7 || s.Start != 100 || s.End != 130 {
		t.Fatalf("span = %+v", s)
	}
}

func TestReaderSpansInterleavedActors(t *testing.T) {
	r := NewRecorder(128)
	rd := r.NewReader()
	r.Record(1, RunStart, 0)
	r.Record(2, RunStart, 5)
	r.Record(1, RunEnd, 10)
	r.Record(2, RunEnd, 20)
	byActor := map[int32]Span{}
	if n := rd.PollSpans(func(s Span) { byActor[s.Actor] = s }); n != 2 {
		t.Fatalf("spans = %d, want 2", n)
	}
	if s := byActor[1]; s.End-s.Start != 10 {
		t.Fatalf("actor 1 span = %+v", s)
	}
	if s := byActor[2]; s.End-s.Start != 15 {
		t.Fatalf("actor 2 span = %+v", s)
	}
}

func TestReaderIndependentCursors(t *testing.T) {
	r := NewRecorder(128)
	a, b := r.NewReader(), r.NewReader()
	r.Record(0, RunStart, 1)
	if n := a.Poll(func(Event) {}); n != 1 {
		t.Fatalf("reader a delivered %d", n)
	}
	// Reader b has its own cursor: a's poll must not consume its events.
	if n := b.Poll(func(Event) {}); n != 1 {
		t.Fatalf("reader b delivered %d", n)
	}
}
