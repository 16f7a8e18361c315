// Command perfbench is the repository's host-performance benchmark. It
// drives the public facade (cudele.NewCluster, Client.*, DecouplePolicy,
// RunComposition) with seed-generated, closed-loop workloads, checks the
// outcome, and prints end-to-end metrics (untraced) or per-layer metrics
// (traced) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload rpc-storm --seed 1 --seconds 10 --trace 0
//
// Every metric is host time or host memory. Simulated results appear
// only as a correctness digest: runs of one seed must agree on it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outdir   string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's operations are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced, per-layer measurement")
	flag.StringVar(&o.outdir, "outdir", ".bench_build/perfbench-out", "where traced runs write spans and profiles, and the real backend keeps its objects")
	flag.Parse()
	o.trace = traceFlag == 1
	wl := findWorkload(o.workload)
	if wl == nil || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(wl, o)
	if rep == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload for o.seconds. Untraced, every iteration
// feeds the end-to-end metrics. Traced, the first half of the time runs
// untraced iterations (the base of trace.overhead) and the second half
// traced ones. A non-nil error with a report means a correctness check
// failed.
func run(wl *workload, o options) (*report, error) {
	ops := wl.gen(o.seed)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	traceFrom := start.Add(time.Duration(o.seconds * float64(time.Second) / 2))

	// Untraced, every median gets at least three iterations.
	minPlain := 3
	if o.trace {
		minPlain = 1
	}
	var plain, traced []*iteration
	var checkErr error
	digest := ""
	for {
		now := time.Now()
		doTrace := o.trace && !now.Before(traceFrom) && len(plain) > 0
		if now.After(deadline) && len(plain) >= minPlain && (!o.trace || len(traced) > 0) {
			break
		}
		// Each iteration starts from a collected heap, so on the
		// simulator garbage collection triggers at the same points of
		// the same allocation sequence every time.
		runtime.GC()
		it := newIteration(wl, o, ops, doTrace)
		if err := wl.run(it); err != nil {
			checkErr = errors.Join(checkErr, fmt.Errorf("iteration %d: %w", len(plain)+len(traced), err))
			break
		}
		if it.failed > 0 {
			checkErr = errors.Join(checkErr, fmt.Errorf("%d of %d ops failed, first: %v", it.failed, it.attempted, it.errs))
		}
		if wl.sim {
			if digest == "" {
				digest = it.digest
			} else if it.digest != digest {
				checkErr = errors.Join(checkErr, fmt.Errorf("simulated outcome differs between runs of seed %d: %s vs %s", o.seed, it.digest, digest))
			}
		}
		if doTrace {
			it.clientSelf, it.handler = it.rec.selfTimes()
			if n := len(traced); n > 0 {
				// Only the last traced iteration's spans, events and
				// store are kept for the per-layer timings.
				traced[n-1].rec, traced[n-1].events, traced[n-1].store = nil, nil, nil
			}
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
		if checkErr != nil {
			break
		}
	}
	rep := &report{Correct: checkErr == nil, Metrics: map[string]metric{}}
	for _, its := range [][]*iteration{plain, traced} {
		for _, it := range its {
			rep.Attempted += it.attempted
			rep.Failed += it.failed
		}
	}
	if checkErr != nil {
		return rep, checkErr
	}
	if wl.sim {
		fmt.Printf("digest %s (identical across %d runs of seed %d)\n", digest, len(plain)+len(traced), o.seed)
	}
	var err error
	if o.trace {
		rep.Metrics, err = layerMetrics(o, plain, traced)
	} else {
		var setups []float64
		if setups, err = setupSamples(wl, o, ops, plain); err == nil {
			rep.Metrics = endToEnd(plain, setups)
		}
	}
	if err != nil {
		rep.Correct = false
		return rep, err
	}
	printMetrics(rep.Metrics)
	return rep, nil
}

// setupRuns is how many set-up times setup_s is the median of.
const setupRuns = 25

// setupSamples returns the iterations' set-up times, topped up to
// setupRuns with set-up-only iterations.
func setupSamples(wl *workload, o options, ops [][]op, its []*iteration) ([]float64, error) {
	var s []float64
	for _, it := range its {
		s = append(s, it.setup.Seconds())
	}
	for len(s) < setupRuns {
		runtime.GC()
		it := newIteration(wl, o, ops, false)
		it.setupOnly = true
		if err := wl.run(it); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s = append(s, it.setup.Seconds())
	}
	return s, nil
}

// endToEnd computes the end-to-end metrics from untraced iterations.
func endToEnd(its []*iteration, setup []float64) map[string]metric {
	var opsPerS, mergePerS []float64
	var lat latHist
	for _, it := range its {
		opsPerS = append(opsPerS, float64(it.phaseOps)/it.phase.Seconds())
		mergePerS = append(mergePerS, float64(it.mergeEvents)/it.merge.Seconds())
		lat.merge(&it.lat)
	}
	fmt.Printf("op latency: %d samples over %d iterations; ms at", lat.n, len(its))
	for _, q := range []float64{0.5, 0.9, 0.98, 0.99, 0.995, 0.999} {
		fmt.Printf(" p%g %.4g", 100*q, lat.quantileMs(q))
	}
	fmt.Println()
	fmt.Printf("ops_per_s by iteration: %.0f\n", opsPerS)
	fmt.Printf("merge_events_per_s by iteration: %.0f\n", mergePerS)
	return map[string]metric{
		"ops_per_s":          {median(opsPerS), "ops/s"},
		"merge_events_per_s": {median(mergePerS), "events/s"},
		"op_p50_ms":          {lat.quantileMs(0.50), "ms"},
		"op_p99_ms":          {lat.quantileMs(0.99), "ms"},
		"setup_s":            {median(setup), "s"},
		"max_rss_mb":         {maxRSSMB(), "MB"},
	}
}

// printMetrics prints every metric by name with its unit.
func printMetrics(m map[string]metric) {
	for _, name := range sortedKeys(m) {
		fmt.Printf("%-36s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// outPath names a traced-run artifact; one file per workload, so repeated
// runs overwrite instead of piling up.
func outPath(o options, suffix string) string {
	return filepath.Join(o.outdir, o.workload+suffix)
}
