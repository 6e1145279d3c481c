// Command oar-node runs a standalone member of the oar mesh (§4.1): it
// listens for gossip, stream and service connections, periodically
// re-gossips with every known peer, and serves a built-in "search" service
// so remote peers can run text matching on this node's corpus — the
// paper's "compile and forget" remote execution experience.
//
//	oar-node -id worker1 -listen 127.0.0.1:7700 [-join host:port] [-corpus FILE]
//
// Run two or more on one machine (or several machines) and watch the mesh
// converge; invoke the search service from another node with the oar.Call
// API or the examples/distributed program.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"raftlib/internal/apps/textsearch"
	"raftlib/internal/oar"
)

func main() {
	var (
		id       = flag.String("id", "", "node identifier (default: host:port)")
		listen   = flag.String("listen", "127.0.0.1:0", "listen address")
		join     = flag.String("join", "", "existing mesh member to join")
		corpus   = flag.String("corpus", "", "file served by the search service")
		interval = flag.Duration("gossip", 500*time.Millisecond, "gossip interval")
	)
	flag.Parse()

	node, err := oar.NewNode(*id, *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oar-node: %v\n", err)
		os.Exit(1)
	}
	defer node.Close()
	if *id == "" {
		*id = node.Addr()
	}
	fmt.Printf("oar-node %s listening on %s\n", *id, node.Addr())

	var corpusData []byte
	if *corpus != "" {
		corpusData, err = os.ReadFile(*corpus)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oar-node: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("serving search over %d bytes of %s\n", len(corpusData), *corpus)
	}

	// The remote-execution service: peers submit a pattern + algorithm,
	// this node runs the raft text-search pipeline locally and returns the
	// hit count.
	node.RegisterService("search", func(req map[string]string) (map[string]string, error) {
		if corpusData == nil {
			return nil, fmt.Errorf("node has no corpus loaded")
		}
		algo := req["algo"]
		if algo == "" {
			algo = "horspool"
		}
		cores, _ := strconv.Atoi(req["cores"])
		res, err := textsearch.Run(corpusData, textsearch.Config{
			Algo:    algo,
			Pattern: []byte(req["pattern"]),
			Cores:   cores,
		})
		if err != nil {
			return nil, err
		}
		return map[string]string{
			"hits":    strconv.FormatInt(res.Hits, 10),
			"elapsed": res.Elapsed.String(),
		}, nil
	})

	if *join != "" {
		if err := node.Join(*join); err != nil {
			fmt.Fprintf(os.Stderr, "oar-node: join: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("joined mesh via %s\n", *join)
	}
	node.StartGossip(*interval)

	// Periodically report the mesh view until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("oar-node: shutting down")
			return
		case <-tick.C:
			peers := node.Peers()
			fmt.Printf("mesh view: %d peer(s)\n", len(peers))
			for _, p := range peers {
				fmt.Printf("  %-12s %-21s cores=%d age=%s\n",
					p.ID, p.Addr, p.Cores, time.Since(p.Stamp).Round(time.Millisecond))
			}
		}
	}
}
