// Command perfbench is the repository's end-to-end benchmark. For one
// workload it generates seeded inputs with job.Synthetic, runs them
// through the built qcloudsim or experiments binary for a fixed
// measurement window, checks every output against a reference computed
// through another path of the program, and prints each metric with its
// unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are the end-to-end ones, from untraced
// runs of the binaries. With --trace 1 they are the per-layer ones: the
// benchmark rebuilds the same composition in this process from the
// packages' public constructors, wraps the layers' public seams with
// spans, and compares the traced export with the binary's.
//
// perfbench/run.sh builds the binaries and this command from source and
// passes --bin and --work; run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-overloaded --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	correct, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// A run repeats its set-up at least setupReps times and for at least
// setupMinS seconds; setup_s is the median. Small workloads set up in
// a few milliseconds, so they get more repetitions.
const (
	setupReps = 15
	setupMinS = 0.5
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts operations attempted and failed: jobs submitted, HTTP
// requests sent and output checks made.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// check records one output check, logging a failure.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: check failed: "+format+"\n", args...)
	}
}

// runFailed records a run that produced no output: its jobs and its
// check all fail.
func (t *tally) runFailed(jobs int, err error) {
	t.attempted += jobs + 1
	t.failed += jobs + 1
	fmt.Fprintf(t.log, "perfbench: run failed: %v\n", err)
}

// finished records one completed run's jobs and requests.
func (t *tally) finished(w workload, r runResult) {
	t.attempted += w.jobs() + r.requests
	t.failed += max(w.jobs()-r.finished, 0) + r.refused
}

func run(args []string, stdout, stderr io.Writer) (bool, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", defaultSeed, "workload seed")
		seconds = fs.Int("seconds", 10, "measurement window in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced in-process run")
		bin     = fs.String("bin", "", "directory holding the built qcloudsim and experiments binaries")
		work    = fs.String("work", "", "working directory for generated inputs and outputs")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		return false, fmt.Errorf("unknown --workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *seconds < 1:
		return false, fmt.Errorf("--seconds must be >= 1, have %d", *seconds)
	case *trace != 0 && *trace != 1:
		return false, fmt.Errorf("--trace must be 0 or 1, have %d", *trace)
	case *bin == "" || *work == "":
		return false, errors.New("--bin and --work are required; run perfbench/run.sh from the repository root")
	}
	dir := filepath.Join(*work, *name)
	if err := os.RemoveAll(dir); err != nil {
		return false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	e := &benchEnv{bin: *bin, dir: dir, seed: *seed, workers: executorWorkers()}
	window := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d s window, trace %d\n", *name, *seed, *seconds, *trace)

	var res result
	var err error
	if *trace == 1 {
		res, err = traceRun(*name, wl, e, window, stdout, stderr)
	} else {
		res, err = measureRun(*name, wl, e, window, stdout, stderr)
	}
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.Correct, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkReference computes the workload's reference output and, at the
// default seed, compares its digest with the stored one, so a bug that
// breaks both paths the same way still fails.
func checkReference(name string, wl workload, e *benchEnv, t *tally) ([]byte, error) {
	ref, err := wl.reference(e)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if e.seed == defaultSeed {
		sum := sha256.Sum256(ref)
		got := hex.EncodeToString(sum[:])
		t.check(got == referenceDigests[name], "%s reference digest at seed %d is %s, stored %s",
			name, defaultSeed, got, referenceDigests[name])
	}
	return ref, nil
}

// measureRun repeats untraced runs of the binary for the window and
// reports the end-to-end metrics.
func measureRun(name string, wl workload, e *benchEnv, window time.Duration, stdout, stderr io.Writer) (result, error) {
	t := &tally{log: stderr}
	var setups []float64
	for total := 0.0; len(setups) < setupReps || total < setupMinS; {
		start := time.Now()
		if err := wl.setup(e); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, since(start))
		total += setups[len(setups)-1]
	}
	ref, err := checkReference(name, wl, e, t)
	if err != nil {
		return result{}, err
	}

	var walls, rates, cpus, rsss, launches, lat []float64
	deadline := time.Now().Add(window)
	for runs := 0; runs == 0 || time.Now().Before(deadline); runs++ {
		r, err := wl.measure(e)
		if err != nil {
			t.runFailed(wl.jobs(), err)
			continue
		}
		t.finished(wl, r)
		t.check(bytes.Equal(r.out, ref), "run %d output differs from the reference", runs+1)
		walls = append(walls, r.wallS)
		rates = append(rates, float64(r.finished)/r.wallS)
		cpus = append(cpus, r.ps.cpuS)
		rsss = append(rsss, r.ps.rssMB)
		if r.launchS > 0 {
			launches = append(launches, r.launchS)
		}
		lat = append(lat, r.latMS...)
	}
	if len(walls) == 0 {
		return result{}, errors.New("no run completed")
	}

	setupS := median(setups)
	setupNote := fmt.Sprintf("median of %d set-ups", len(setups))
	if len(launches) > 0 {
		setupS += median(launches)
		setupNote += fmt.Sprintf(" plus median of %d launches to /healthz", len(launches))
	}
	n := len(walls)
	runNote := fmt.Sprintf("median of %d runs", n)
	res := result{Metrics: map[string]metricValue{}}
	report := func(d metricDef, v float64, note string) {
		fmt.Fprintf(stdout, "  %-22s %14.6g %-6s %s\n", d.name, v, d.unit, note)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	values := map[string]float64{
		"jobs_per_s": median(rates), "run_s": median(walls), "cpu_s": median(cpus),
		"peak_rss_mb": median(rsss), "setup_s": setupS,
	}
	for _, d := range endToEnd {
		note := runNote
		if d.name == "setup_s" {
			note = setupNote
		}
		report(d, values[d.name], note)
	}
	if len(lat) > 0 {
		sorted := sortedCopy(lat)
		p50, _ := percentile(sorted, 50)
		fmt.Fprintf(stdout, "  %-22s %14.6g %-6s of %d requests\n", "submit_p50_ms", p50, "ms", len(sorted))
		if p, v, ok := tailPercentile(sorted, []float64{90, 95, 99}); ok {
			_, beyond := percentile(sorted, p)
			fmt.Fprintf(stdout, "  %-22s %14.6g %-6s of %d requests, %d beyond\n",
				fmt.Sprintf("submit_p%g_ms", p), v, "ms", len(sorted), beyond)
		}
	}
	fmt.Fprintf(stdout, "  %-22s %14.6g %-6s %d of %d operations\n", "failed_frac",
		float64(t.failed)/float64(t.attempted), "ratio", t.failed, t.attempted)
	res.Correct, res.Attempted, res.Failed = t.failed == 0, t.attempted, t.failed
	return res, nil
}

// traceRun repeats, for the window, one untraced run of the binary, an
// untraced in-process pass of the same composition (which also gives
// the Go runtime's figures), and a traced pass. It reports the
// per-layer metrics as medians over those repetitions.
func traceRun(name string, wl workload, e *benchEnv, window time.Duration, stdout, stderr io.Writer) (result, error) {
	t := &tally{log: stderr}
	if err := wl.setup(e); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	ref, err := checkReference(name, wl, e, t)
	if err != nil {
		return result{}, err
	}
	samples := map[string][]float64{}
	deadline := time.Now().Add(window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		bin, err := wl.measure(e)
		if err != nil {
			t.runFailed(wl.jobs(), err)
			continue
		}
		t.finished(wl, bin)
		t.check(bytes.Equal(bin.out, ref), "binary output differs from the reference")

		runtime.GC()
		watch := watchRuntime()
		plain, err := wl.inProcess(e, nil)
		rt := watch.stop()
		if err != nil {
			t.runFailed(0, fmt.Errorf("untraced in-process pass: %w", err))
			continue
		}
		t.check(bytes.Equal(plain.out, bin.out), "untraced in-process output differs from the binary's")

		runtime.GC()
		tr := newTracer()
		traced, err := wl.inProcess(e, tr)
		if err != nil {
			t.runFailed(0, fmt.Errorf("traced in-process pass: %w", err))
			continue
		}
		t.check(bytes.Equal(traced.out, bin.out), "traced in-process output differs from the binary's")
		// Write the spans out now rather than keep them: spans held
		// live would raise the heap goal of the next untraced pass.
		if err := tr.writeCSV(e.path("spans.csv")); err != nil {
			return result{}, err
		}

		layers := traced.layers
		jobs := float64(wl.jobs())
		layers["gc.cycles"] = rt.gcCycles
		layers["gc.pause_s"] = rt.gcPauseS
		layers["gc.cpu_frac"] = rt.gcCPUFrac
		layers["heap.peak_mb"] = rt.heapPeakMB
		layers["heap.alloc_bytes_per_job"] = rt.allocBytes / jobs
		layers["heap.allocs_per_job"] = rt.allocObjects / jobs
		layers["trace.overhead_frac"] = traced.wallS/plain.wallS - 1
		if name == table2W {
			layers["experiments.overhead_s"] = bin.wallS - layers["rlsched.train_s"] - traced.simulateS
		} else {
			layers["qcloudsim.edge_s"] = bin.wallS - plain.wallS
		}
		for k, v := range layers {
			samples[k] = append(samples[k], v)
		}
	}
	reps := len(samples[perLayer[0].name])
	if reps == 0 {
		return result{}, errors.New("no traced pass completed")
	}
	fmt.Fprintf(stdout, "  %d traced repetitions; spans of the last in %s\n", reps, e.path("spans.csv"))
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		v := median(samples[d.name])
		fmt.Fprintf(stdout, "  %-34s %14.6g %-10s median of %d\n", d.name, v, d.unit, reps)
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	for _, d := range extraLayers {
		fmt.Fprintf(stdout, "  %-34s %14.6g %-10s median of %d, not in BENCHMARK.json\n", d.name, median(samples[d.name]), d.unit, reps)
	}
	fmt.Fprintf(stdout, "  %-34s %14.6g %-10s %d of %d operations\n", "failed_frac",
		float64(t.failed)/float64(t.attempted), "ratio", t.failed, t.attempted)
	res.Correct, res.Attempted, res.Failed = t.failed == 0, t.attempted, t.failed
	return res, nil
}
