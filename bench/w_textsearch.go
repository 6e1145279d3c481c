package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"raftlib/internal/apps/textsearch"
	"raftlib/internal/baselines/pargrep"
	"raftlib/internal/corpus"
	"raftlib/internal/search"
	"raftlib/kernels"
)

const corpusBytes = 64 << 20

// textInput is the seeded corpus and its reference hit count, generated
// once per process.
var textInput struct {
	data []byte
	hits int64
}

func prepareTextsearch(e *env) error {
	size := int(float64(corpusBytes) / e.scale)
	textInput.data = corpus.Generate(corpus.Spec{Bytes: size, Seed: 1000 + e.seed})
	textInput.hits = int64(pargrep.GrepSerial(textInput.data, []byte(corpus.DefaultPattern)).Hits)
	return nil
}

// runTextsearch is the textsearch workload: the paper's Fig. 8 topology
// (filereader -> match x nproc -> reduce) through the application package,
// Boyer-Moore-Horspool, n back-to-back executions over one corpus. An item
// is one filereader chunk. Kernel compute and memory bandwidth dominate;
// the streams carry a few hundred zero-copy chunks per execution.
func runTextsearch(e *env, n int64) (outcome, error) {
	var o outcome
	run, endRun := e.tr.begin("run", 0)
	defer endRun()
	data := textInput.data
	if n == 0 {
		data, n = nil, 1
	}
	o.exeStart = time.Now()
	var hits int64
	for i := int64(0); i < n; i++ {
		// textsearch.Run builds and executes in one call; the whole call is
		// the exe span and its Report's Elapsed the Exe wall time.
		_, endExe := e.tr.begin("exe", run)
		t0 := time.Now()
		res, err := textsearch.Run(data, textsearch.Config{Algo: "horspool", Cores: runtime.GOMAXPROCS(0)})
		endExe()
		if err != nil {
			return o, err
		}
		o.build += time.Since(t0) - res.Elapsed
		o.exe += res.Elapsed
		o.kernels = len(res.Report.Kernels)
		o.reports = append(o.reports, res.Report)
		hits += res.Hits
	}
	_, endVerify := e.tr.begin("verify", run)
	defer endVerify()
	chunks := int64(len(data)+kernels.DefaultChunkSize-1) / kernels.DefaultChunkSize
	o.items, o.bytes, o.execs = n*chunks, n*int64(len(data)), n
	if data == nil {
		return o, nil
	}
	// One operation per execution: its hit count equals serial grep's.
	o.attempted = n
	if want := n * textInput.hits; hits != want {
		o.failed = min(n, max(hits-want, want-hits))
	}
	return o, nil
}

// layerTextsearch adds the single-threaded matcher baselines over the same
// corpus and, from the public Report, how busy the match kernels were and
// how long the reader sat blocked on its output.
func layerTextsearch(e *env, n int64, traced outcome, m *metrics) error {
	single := map[string]float64{}
	for _, algo := range []string{"horspool", "ahocorasick"} {
		mt, err := search.New(algo, []byte(corpus.DefaultPattern))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if got := int64(mt.Count(textInput.data)); got != textInput.hits {
			return fmt.Errorf("search.%s: %d hits, serial grep found %d", algo, got, textInput.hits)
		}
		single[algo] = float64(len(textInput.data)) / time.Since(t0).Seconds()
		m.set("search."+algo+"_bytes_per_s", single[algo])
	}
	var matchBusy, matchWall, readerBlock, wall float64
	for _, r := range traced.reports {
		wall += r.Elapsed.Seconds()
		for _, k := range r.Kernels {
			if strings.HasPrefix(k.Name, "search[") {
				matchBusy += float64(k.BusyNanos) / 1e9
				matchWall += r.Elapsed.Seconds()
			}
		}
		for _, l := range r.Links {
			if strings.HasPrefix(l.Name, "filereader.") {
				readerBlock += float64(l.WriteBlockNs) / 1e9
			}
		}
	}
	if matchWall > 0 {
		m.set("kernels.textsearch.match_busy_share", matchBusy/matchWall)
	}
	if wall > 0 {
		m.set("kernels.textsearch.reader_block_share", readerBlock/wall)
		bps := float64(traced.bytes) / traced.exe.Seconds()
		m.set("kernels.textsearch.scaling_eff", bps/(float64(runtime.GOMAXPROCS(0))*single["horspool"]))
	}
	return nil
}
