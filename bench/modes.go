package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// child runs one pass of one workload in its own process (so mem_sys_mb
// and the allocator start clean) and returns its contract line. The
// child's standard output is passed through.
func child(name string, seed uint64, seconds int, scale float64, trace int) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(out.Bytes())
	if runErr != nil {
		return res, fmt.Errorf("%s (trace %d): %w", name, trace, runErr)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("%s (trace %d): last line is not a result: %w", name, trace, err)
	}
	return res, nil
}

// runAll runs every workload untraced and then traced.
func runAll(seed uint64, seconds int) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(w.name, seed, seconds, 1, trace); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
			}
		}
	}
	return code
}

// runSmoke runs every workload at 1/50 scale, both passes, and checks only
// the oracles and that the emitted metric names, units and workloads equal
// those BENCHMARK.json declares.
func runSmoke(seed uint64) int {
	d, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bad := checkDeclared(d)
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, err := child(w.name, seed, 3, 50, trace)
			if err != nil {
				bad = append(bad, err.Error())
				continue
			}
			if len(res.Metrics) != len(defs) {
				bad = append(bad, fmt.Sprintf("%s (trace %d): %d metrics emitted, %d in the table", w.name, trace, len(res.Metrics), len(defs)))
			}
			for _, def := range defs {
				if got, ok := res.Metrics[def.name]; !ok || got.Unit != def.unit {
					bad = append(bad, fmt.Sprintf("%s (trace %d): metric %s missing or unit %q != %q", w.name, trace, def.name, got.Unit, def.unit))
				}
			}
		}
	}
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "bench: smoke:", b)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Println("smoke ok: 6 workloads, oracles pass, metrics equal BENCHMARK.json")
	return 0
}

// runAA is the A/A self-check that calibrates the bounds in BENCHMARK.json:
// k sets of untraced runs at seed plus one at seed+1, all of the same code.
// For every end-to-end metric and workload it prints the range of the sets
// as a share of their median next to the declared bound, and the bound the
// data suggest (max(5 %, 2 x range)). A metric that misses its bound must be
// demoted to per_layer or given a wider bound before the file ships; the
// exit code is 1 until none does. setup_s is printed but not judged on its
// range: the driver exempts it from the spread rule too (it compares only
// the medians of its two sets of ten), and three fastest-of-many timings of
// a 0.1 ms set-up differ by more than any bound the contract allows.
func runAA(k int, seed uint64, seconds int) int {
	d, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	start := time.Now()
	values := map[string][]float64{} // "workload metric" -> one value per set
	for set := 0; set <= k; set++ {
		s := seed
		if set == k {
			s = seed + 1
		}
		for _, w := range workloads {
			res, err := child(w.name, s, seconds, 1, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			for name, v := range res.Metrics {
				key := w.name + " " + name
				values[key] = append(values[key], v.Value)
			}
		}
	}
	keys := make([]string, 0, len(values))
	for key := range values {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	bound := map[string]float64{}
	for _, m := range d.EndToEnd {
		bound[m.Name] = m.Bound
	}
	code := 0
	fmt.Printf("\nA/A over %d sets (%v): range / median per end-to-end metric and workload\n", k+1, time.Since(start).Round(time.Second))
	fmt.Printf("%-12s %-16s %12s %9s %7s %10s\n", "workload", "metric", "median", "range", "bound", "suggested")
	for _, key := range keys {
		v := values[key]
		sort.Float64s(v)
		med := median(v)
		rng := (v[len(v)-1] - v[0]) / med
		wl, name, _ := strings.Cut(key, " ")
		verdict := ""
		if name == "setup_s" {
			verdict = "  (not judged on range)"
		} else if rng > bound[name] {
			verdict = "  MISSES ITS BOUND: widen it or demote the metric"
			code = 1
		}
		fmt.Printf("%-12s %-16s %12.5g %8.1f%% %6.0f%% %9.0f%%%s\n", wl, name, med, 100*rng, 100*bound[name], 100*max(0.05, 2*rng), verdict)
	}
	return code
}
