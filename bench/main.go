// Command bench is the repository's end-to-end benchmark: six named
// workloads, each checked against a reference, measured with spans off for
// the end-to-end metrics and once more with spans recorded by this package
// around calls into each layer for the per-layer metrics. README.md in this
// directory is the metric catalogue.
//
//	go run ./bench -workload scalar -seed 1 -seconds 10 -trace 0   one pass (the driver's form)
//	go run ./bench -all -seed 1                                    every workload, both passes
//	go run ./bench -smoke                                          1/50 scale, oracles + schema
//	go run ./bench -aa 2                                           A/A self-check against the bounds
//
// The last line of standard output of a -workload run is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance says where a number came from; it is printed with every pass.
type provenance struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readProvenance() provenance {
	p := provenance{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	// Ask git only in the root of a git checkout: elsewhere it would search
	// the parent directories, outside the checkout the benchmark runs in.
	if _, err := os.Stat(".git"); err == nil && p.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.Commit = strings.TrimSpace(string(out))
		}
	}
	return p
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload: scalar|autotune|textsearch|manykernels|gateway|bridge")
		seed    = flag.Uint64("seed", 1, "perturbs corpus, payload bytes and tenant interleave")
		seconds = flag.Int("seconds", 10, "timed seconds of one pass")
		trace   = flag.Int("trace", 0, "0: end-to-end pass, spans off; 1: per-layer pass, spans on")
		scale   = flag.Float64("scale", 1, "divide every workload size by this")
		all     = flag.Bool("all", false, "every workload, untraced then traced, each in its own process")
		smoke   = flag.Bool("smoke", false, "every workload at 1/50 scale; checks oracles and that emitted metrics equal BENCHMARK.json")
		aa      = flag.Int("aa", 0, "A/A self-check: run K sets at -seed and one at -seed+1, compare spreads with the bounds in BENCHMARK.json")
	)
	flag.Parse()
	// With one processor, producer and consumer cannot overlap and every
	// number measures scheduler luck.
	if runtime.GOMAXPROCS(0) < 2 {
		fatalf(2, "GOMAXPROCS=%d: the benchmark needs at least 2", runtime.GOMAXPROCS(0))
	}
	switch {
	case *smoke:
		os.Exit(runSmoke(*seed))
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds))
	case *all:
		os.Exit(runAll(*seed, *seconds))
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatalf(2, "unknown workload %q", *name)
		}
		if *seconds < 1 || *scale < 1 || (*trace != 0 && *trace != 1) {
			fatalf(2, "need -seconds >= 1, -scale >= 1 and -trace 0 or 1")
		}
		e := &env{seed: *seed, seconds: *seconds, scale: *scale}
		pass := untraced
		if *trace == 1 {
			pass = tracedPass
		}
		res, det, err := pass(w, e)
		if err != nil {
			fatalf(1, "%v", err)
		}
		det.Provenance = readProvenance()
		emit(det)
		emit(res)
		if !res.Correct {
			fatalf(1, "%s: %d of %d operations failed the oracle", w.name, res.Failed, res.Attempted)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf(1, "encode: %v", err)
	}
	fmt.Println(string(b))
}
