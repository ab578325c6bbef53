// Command kvbench is the wire-level benchmark of the lsasg daemon. It starts
// cmd/dsgserve, drives one workload through a single connection as a closed
// loop, checks every answer against its own key-value oracle, and prints
// the end-to-end metrics. With -trace 1 it also replays the identical op
// stream in-process through each layer's public functions and prints the
// per-layer table. See README.md for the workloads and the metrics.
//
// Usage (from the repository root, after building dsgserve):
//
//	kvbench -daemon dsgserve -workload kv-zipf-read -seed 1 -seconds 25 -trace 0
//	kvbench -daemon dsgserve -workload crud-sharded-hotrange -seconds 5 -steady 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	var (
		daemonBin = flag.String("daemon", ".bench_build/bin/dsgserve", "dsgserve binary to benchmark")
		workload  = flag.String("workload", "kv-zipf-read", "workload name: "+workloadNames())
		seed      = flag.Int64("seed", 1, "workload seed: draws the op stream")
		seconds   = flag.Int("seconds", defaultSeconds, "timed-phase length in reference seconds; sets the timed op count")
		trace     = flag.Int("trace", 0, "1 runs the traced in-process replay and prints per-layer metrics")
		steady    = flag.Int("steady", 0, "k > 0 runs the workload k times (seeds seed..seed+k-1) and prints each metric's quartiles")
	)
	flag.Parse()
	if *trace == 0 {
		// The client's own collections would land inside the round trips
		// it times; a larger heap goal makes them rare. The daemon, and
		// the traced run's in-process replicas, keep the default.
		debug.SetGCPercent(400)
	}
	s, err := specByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds ≥ 1 and -trace 0 or 1"))
	}
	if _, err := os.Stat(*daemonBin); err != nil {
		fatal(fmt.Errorf("daemon binary: %w", err))
	}
	cfg := runConfig{bin: *daemonBin, spec: s, seconds: *seconds, traced: *trace == 1}
	if *steady > 0 {
		if err := steadiness(os.Stdout, cfg, *seed, *steady); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(cfg, *seed)
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints every metric by name and unit, then the JSON verdict
// as the last line.
func printResult(w *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(b))
}
