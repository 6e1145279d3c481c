package oar

import (
	"fmt"
	"sort"
	"time"
)

// Placement helpers: the consumers of the gossip data. The mesh exists so
// the runtime can "continuously optimize and monitor Raft kernels
// executing on multiple systems" (§4.1) — concretely, to decide which node
// should receive the next remote kernel based on freshness, capacity and
// load.

// FreshPeers returns the peers whose gossip record is younger than maxAge,
// sorted by ID. Stale records (crashed or partitioned nodes) are excluded
// but not deleted — a node that resumes gossiping becomes fresh again.
func (n *Node) FreshPeers(maxAge time.Duration) []NodeInfo {
	if maxAge <= 0 {
		maxAge = 5 * time.Second
	}
	cutoff := time.Now().Add(-maxAge)
	var out []NodeInfo
	for _, p := range n.Peers() {
		if p.Stamp.After(cutoff) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PickLeastLoaded returns the fresh peer with the most headroom, defined
// as cores × (1 - load): the target the runtime should hand the next
// remote kernel to. It returns an error when no fresh peer exists.
func (n *Node) PickLeastLoaded(maxAge time.Duration) (NodeInfo, error) {
	peers := n.FreshPeers(maxAge)
	if len(peers) == 0 {
		return NodeInfo{}, fmt.Errorf("oar: node %s has no fresh peers", n.id)
	}
	best := peers[0]
	bestHeadroom := headroom(best)
	for _, p := range peers[1:] {
		if h := headroom(p); h > bestHeadroom {
			best, bestHeadroom = p, h
		}
	}
	return best, nil
}

func headroom(p NodeInfo) float64 {
	cores := p.Cores
	if cores < 1 {
		cores = 1
	}
	load := p.Load
	if load < 0 {
		load = 0
	}
	if load > 1 {
		load = 1
	}
	return float64(cores) * (1 - load)
}
