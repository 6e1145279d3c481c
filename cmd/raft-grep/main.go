// Command raft-grep is a grep-like exact string matcher built on the raft
// streaming runtime — the application of the paper's §5 benchmark as a
// usable tool:
//
//	raft-grep [-algo horspool|ahocorasick|boyermoore] [-cores N]
//	          [-count] [-offsets] PATTERN FILE
//
// It prints matching lines by default, mirrors grep -c with -count, and
// prints byte offsets with -offsets. The match kernels are replicated
// across cores by the runtime. -stats prints the full execution report
// (kernels, streams, monitor decisions) to stderr; -rate switches the
// monitor to the online service-rate controller and adds λ̂/µ̂/ρ̂
// columns to the report; -trace FILE writes a Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"

	"raftlib/internal/apps/textsearch"
	"raftlib/raft"
)

func main() {
	var (
		algo    = flag.String("algo", "horspool", "match algorithm: horspool|ahocorasick|boyermoore|naive")
		cores   = flag.Int("cores", runtime.GOMAXPROCS(0), "match kernel replicas")
		count   = flag.Bool("count", false, "print only the match count (grep -c)")
		offsets = flag.Bool("offsets", false, "print byte offsets instead of lines")
		stats   = flag.Bool("stats", false, "print the full execution report to stderr")
		rate    = flag.Bool("rate", false, "drive batching/replication from online λ̂/µ̂ estimates (adds λ̂/µ̂/ρ̂ to -stats and -metrics)")
		tracef  = flag.String("trace", "", "write a Chrome trace-event JSON to FILE (load in Perfetto)")
		metrics = flag.String("metrics", "", "serve Prometheus metrics on host:port while running")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: raft-grep [flags] PATTERN FILE")
		flag.Usage()
		os.Exit(2)
	}
	pattern := []byte(flag.Arg(0))
	path := flag.Arg(1)

	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raft-grep: %v\n", err)
		os.Exit(1)
	}

	var exeOpts []raft.Option
	if *tracef != "" {
		exeOpts = append(exeOpts, raft.WithTrace(1<<16))
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "raft-grep: metrics: %v\n", err)
			os.Exit(1)
		}
		exeOpts = append(exeOpts, raft.WithMetricsListener(ln))
	}
	if *rate {
		exeOpts = append(exeOpts, raft.WithServiceRateControl())
	}

	res, err := textsearch.Run(data, textsearch.Config{
		Algo:             *algo,
		Pattern:          pattern,
		Cores:            *cores,
		CollectPositions: !*count,
		ExtraExeOpts:     exeOpts,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "raft-grep: %v\n", err)
		os.Exit(1)
	}

	switch {
	case *count:
		fmt.Println(res.Hits)
	case *offsets:
		sort.Slice(res.Positions, func(i, j int) bool { return res.Positions[i] < res.Positions[j] })
		w := bufio.NewWriter(os.Stdout)
		for _, p := range res.Positions {
			fmt.Fprintln(w, p)
		}
		w.Flush()
	default:
		printMatchingLines(data, res.Positions)
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "raft-grep: %d hits in %v (%.3f GB/s)\n",
			res.Hits, res.Elapsed, res.Throughput(len(data))/1e9)
		fmt.Fprint(os.Stderr, res.Report.String())
	}
	if *tracef != "" {
		f, err := os.Create(*tracef)
		if err != nil {
			fmt.Fprintf(os.Stderr, "raft-grep: %v\n", err)
			os.Exit(1)
		}
		if err := res.Report.WriteChromeTrace(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "raft-grep: trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "raft-grep: %v\n", err)
			os.Exit(1)
		}
	}
}

// printMatchingLines prints each line containing at least one match, in
// file order, once.
func printMatchingLines(data []byte, positions []int64) {
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	lastLineEnd := int64(-1)
	for _, p := range positions {
		if p <= lastLineEnd {
			continue // same line as the previous match
		}
		start := int64(bytes.LastIndexByte(data[:p], '\n') + 1)
		endRel := bytes.IndexByte(data[p:], '\n')
		end := int64(len(data))
		if endRel >= 0 {
			end = p + int64(endRel)
		}
		w.Write(data[start:end])
		w.WriteByte('\n')
		lastLineEnd = end
	}
}
