package raft

import (
	"time"

	"raftlib/internal/trace"
)

// Latency provenance carriage. Exe installs one trace.MarkerLane per link
// (shared by both endpoint ports, like the link's BatchControl) and a
// markerRig on every kernel. Markers are stamped at ingest ports (source
// kernels and gateway bindings), picked up by the consuming kernel's pop,
// re-deposited by its next push — growing one Hop per stage — and retired
// into the domain's histograms when a sink (a kernel with no output
// ports) picks them up. Bridge endpoints opt out of both stamping and
// retirement by implementing hook.MarkerCarrier and carry markers across
// the wire themselves.
//
// Disabled cost: p.lane stays nil, so every port operation pays exactly
// one pointer check. Enabled cost: one atomic load per pop (the lane's
// empty check) and a length check per push; everything heavier is behind
// the sampled-marker-present path.

// markerRig couples one execution's marker domain with its trace bus (rec
// may be nil: markers aggregate without a recorder).
type markerRig struct {
	dom *trace.MarkerDomain
	rec *trace.Recorder
}

// markPop relays lane markers to the owning kernel after a successful pop
// of any size.
func (p *Port) markPop() {
	if p.lane == nil || p.lane.Empty() {
		return
	}
	p.owner.pickupMarks(p.lane)
}

// markPush stamps and forwards markers after a successful push of n
// elements.
func (p *Port) markPush(n int) {
	if p.lane == nil {
		return
	}
	k := p.owner
	if p.stampEvery > 0 && k.marks != nil {
		if uint32(n) >= p.stampLeft {
			p.stampLeft = p.stampEvery
			now := time.Now().UnixNano()
			m := k.marks.dom.Stamp(p.stampTenant, k.name, now)
			if k.marks.rec != nil {
				k.marks.rec.Emit(trace.Event{Actor: k.actor, Kind: trace.MarkStamp,
					At: now, Arg: int64(m.ID), Label: m.Flow()})
			}
			p.lane.Deposit(m, now)
		} else {
			p.stampLeft -= uint32(n)
		}
	}
	if k != nil && len(k.pendingMarks) > 0 {
		now := time.Now().UnixNano()
		for _, m := range k.pendingMarks {
			p.lane.Deposit(m, now)
		}
		clear(k.pendingMarks)
		k.pendingMarks = k.pendingMarks[:0]
	}
}

// pickupMarks drains a lane into the kernel: sinks retire markers on the
// spot, everything else holds them for the next push.
func (k *KernelBase) pickupMarks(lane *trace.MarkerLane) {
	rig := k.marks
	if rig == nil {
		return
	}
	now := time.Now().UnixNano()
	ms := lane.Take(now)
	if len(ms) == 0 {
		return
	}
	if rig.rec != nil {
		for _, m := range ms {
			rig.rec.Emit(trace.Event{Actor: k.actor, Kind: trace.MarkHop, At: now,
				Prev: m.PendingQueueNs(), Arg: int64(m.ID), Label: lane.Name()})
		}
	}
	if len(k.outs) == 0 && !k.markForward {
		for _, m := range ms {
			e2e := rig.dom.Retire(m, now)
			if rig.rec != nil {
				rig.rec.Emit(trace.Event{Actor: k.actor, Kind: trace.MarkRetire, At: now,
					Prev: int64(m.ID), Arg: int64(e2e), Label: m.Flow()})
			}
		}
		return
	}
	k.pendingMarks = append(k.pendingMarks, ms...)
}

// forwardMarks relays markers across a split/merge adapter, whose movers
// operate on the raw queues and bypass the port hooks: the adapter
// contributes one hop (its input-lane wait; the move itself is the
// kernel-side share).
func forwardMarks(in, out *Port) {
	if in.lane == nil || in.lane.Empty() || out.lane == nil {
		return
	}
	now := time.Now().UnixNano()
	for _, m := range in.lane.Take(now) {
		out.lane.Deposit(m, now)
	}
}

// markerCarriage is a hook.MarkerCarrier's own KernelBase seen as its
// hook.Markers: buildActor hands it to the carrier, so the take and deposit
// operations stay off KernelBase's public surface.
type markerCarriage KernelBase

// Take implements hook.Markers.
func (c *markerCarriage) Take() []*trace.Marker {
	if len(c.pendingMarks) == 0 {
		return nil
	}
	ms := c.pendingMarks
	c.pendingMarks = nil
	return ms
}

// Deposit implements hook.Markers.
func (c *markerCarriage) Deposit(ms []*trace.Marker) {
	if len(ms) == 0 {
		return
	}
	for _, p := range c.outs {
		if p.lane != nil {
			now := time.Now().UnixNano()
			for _, m := range ms {
				p.lane.Deposit(m, now)
			}
			return
		}
	}
}
