package trace

// Reader incrementally consumes a Recorder's event stream: each Poll
// delivers only the events emitted since the previous Poll, shard by
// shard, without ever blocking a writer. This is the span-consumer API
// the online service-rate estimator (internal/qmodel) reads sampled
// RunStart/RunEnd pairs through — repeatedly calling Recorder.Events()
// would rescan and re-sort the whole retained window on every monitor
// tick, which the estimator cannot afford.
//
// Within one shard events are delivered in emission order, and because
// actors hash to shards, one actor's events always share a shard: per-
// actor ordering (all a span pairer needs) is preserved. Ordering across
// shards is not guaranteed — cross-actor merges should use Event.At.
//
// A Reader is owned by a single goroutine (the monitor loop); concurrent
// Poll calls require external synchronization. Writers never wait on it.
type Reader struct {
	rec  *Recorder
	next []uint64        // per-shard cursor of the next unread event
	open map[int32]int64 // per-actor pending RunStart, for PollSpans
}

// NewReader returns a reader positioned at the current end of the bus:
// the first Poll sees only events emitted after this call.
func (r *Recorder) NewReader() *Reader {
	rd := &Reader{rec: r, next: make([]uint64, len(r.shards)), open: map[int32]int64{}}
	for i := range r.shards {
		rd.next[i] = r.shards[i].cursor.Load()
	}
	return rd
}

// Poll invokes fn for every event emitted since the previous Poll. If a
// shard wrapped past unread events, the overwritten ones are skipped and
// counted in Lost. Returns the number of events delivered.
func (rd *Reader) Poll(fn func(Event)) int {
	delivered := 0
	for i := range rd.rec.shards {
		sh := &rd.rec.shards[i]
		c := sh.cursor.Load()
		from := rd.next[i]
		if c == from {
			continue
		}
		if c-from > uint64(len(sh.slots)) {
			from = c - uint64(len(sh.slots))
		}
		for j := from; j < c; j++ {
			if p := sh.slots[j&sh.mask].Load(); p != nil {
				fn(*p)
				delivered++
			}
		}
		rd.next[i] = c
	}
	return delivered
}

// PollSpans drains new events and invokes fn for every completed
// RunStart/RunEnd pair, carrying open starts across polls so a span
// whose halves land in different polls is still paired. Non-span events
// are ignored. Returns the number of spans delivered.
func (rd *Reader) PollSpans(fn func(Span)) int {
	spans := 0
	rd.Poll(func(e Event) {
		switch e.Kind {
		case RunStart:
			rd.open[e.Actor] = e.At
		case RunEnd:
			if s, ok := rd.open[e.Actor]; ok && e.At >= s {
				fn(Span{Actor: e.Actor, Start: s, End: e.At})
				spans++
				delete(rd.open, e.Actor)
			}
		}
	})
	return spans
}
