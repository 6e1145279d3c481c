package oar

import (
	"testing"
	"time"
)

// seedPeer injects a peer record directly (placement logic is pure view
// manipulation; no sockets needed).
func seedPeer(n *Node, id string, cores int, load float64, age time.Duration) {
	n.merge(NodeInfo{
		ID:    id,
		Addr:  "127.0.0.1:0",
		Cores: cores,
		Load:  load,
		Stamp: time.Now().Add(-age),
	})
}

func TestFreshPeersFiltersByAge(t *testing.T) {
	n := newTestNode(t, "self")
	seedPeer(n, "young", 4, 0.1, 10*time.Millisecond)
	seedPeer(n, "old", 8, 0.1, 10*time.Second)
	fresh := n.FreshPeers(time.Second)
	if len(fresh) != 1 || fresh[0].ID != "young" {
		t.Fatalf("fresh = %+v", fresh)
	}
	// Default maxAge keeps the young one too.
	if got := n.FreshPeers(0); len(got) != 1 {
		t.Fatalf("default-age fresh = %+v", got)
	}
}

func TestPickLeastLoaded(t *testing.T) {
	n := newTestNode(t, "self")
	seedPeer(n, "busy", 16, 0.9, 0)  // headroom 1.6
	seedPeer(n, "idle", 4, 0.0, 0)   // headroom 4.0
	seedPeer(n, "medium", 8, 0.5, 0) // headroom 4.0 -> tie, first by scan
	best, err := n.PickLeastLoaded(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h := headroom(best); h != 4.0 {
		t.Fatalf("picked %s with headroom %v", best.ID, h)
	}
}

func TestPickLeastLoadedNoPeers(t *testing.T) {
	n := newTestNode(t, "lonely")
	if _, err := n.PickLeastLoaded(time.Second); err == nil {
		t.Fatal("no peers must error")
	}
}

func TestHeadroomClamps(t *testing.T) {
	if h := headroom(NodeInfo{Cores: 0, Load: -1}); h != 1 {
		t.Fatalf("headroom = %v, want clamped 1", h)
	}
	if h := headroom(NodeInfo{Cores: 2, Load: 5}); h != 0 {
		t.Fatalf("overloaded headroom = %v, want 0", h)
	}
}
