package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"
)

// runResult is one untraced run of the program under test.
type runResult struct {
	wallS    float64 // host seconds of the timed phase
	ps       procStats
	launchS  float64   // HTTP only: process start until /healthz answers 200
	latMS    []float64 // HTTP only: per-request latency, send to full response
	requests int       // HTTP requests sent
	refused  int       // HTTP requests not answered 202 with every job accepted
	finished int       // jobs the output accounts for
	out      []byte    // canonical output, compared with the reference
}

// passResult is one in-process pass of the same composition.
type passResult struct {
	wallS  float64
	out    []byte // canonical output, byte-identical to the binary's
	queue  queueProfile
	layers map[string]float64 // per-layer metrics; only from a traced pass
	// simulateS is the table2-train wall time of all RunMode calls,
	// from a traced pass.
	simulateS float64
}

// workload is one set of seeded inputs and the program path it runs.
type workload interface {
	// jobs is how many jobs one run must finish.
	jobs() int
	// setup generates the seeded inputs into the working directory.
	setup(e *benchEnv) error
	// reference computes the expected canonical output once, through
	// another path of the program.
	reference(e *benchEnv) ([]byte, error)
	// measure runs the built program once, untraced.
	measure(e *benchEnv) (runResult, error)
	// inProcess runs the same composition from the packages' public
	// constructors in this process, traced when tr is non-nil.
	inProcess(e *benchEnv, tr *tracer) (passResult, error)
}

var workloads = map[string]workload{
	serveW:  &serveWorkload{n: 20000, interarrival: 60},
	httpW:   &httpWorkload{n: 20000, interarrival: 600, batch: 25},
	batchW:  &backfillWorkload{n: 1000, interarrival: 60},
	table2W: &table2Workload{n: 1000, interarrival: 60, trainSteps: 5000},
}

// executorWorkers is the experiments -workers value: two, or fewer on
// a smaller machine.
func executorWorkers() int { return min(2, runtime.NumCPU()) }

// readOutput reads a program's output file and removes it, so a later
// run that fails to write one cannot pass on stale bytes.
func readOutput(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return data, os.Remove(path)
}

// serveWorkload replays a logical-time NDJSON stream into qcloudsim
// -serve on stdin. The pipe applies backpressure, so the replay is a
// closed loop.
type serveWorkload struct {
	n            int
	interarrival float64
}

func (w *serveWorkload) jobs() int { return w.n }

func (w *serveWorkload) setup(e *benchEnv) error { return writeWorkload(e, w.n, w.interarrival) }

func (w *serveWorkload) reference(e *benchEnv) ([]byte, error) {
	return batchExport(e, false)
}

// batchExport runs qcloudsim's batch engine over w.csv and returns its
// records export.
func batchExport(e *benchEnv, backfill bool) ([]byte, error) {
	args := []string{"-policy", "fair", "-jobs", "w.csv", "-export", "ref.csv"}
	if backfill {
		args = append([]string{"-backfill"}, args...)
	}
	cmd, cancel := command(e.dir, e.qcloudsim(), args...)
	defer cancel()
	if _, _, err := runTimed(cmd); err != nil {
		return nil, err
	}
	return readOutput(e.path("ref.csv"))
}

// serveExport runs qcloudsim -serve over the w.ndjson stream on stdin
// and returns its wall time, resource use, finish-event count and
// records export.
func serveExport(e *benchEnv, backfill bool) (runResult, error) {
	stream, err := os.ReadFile(e.path("w.ndjson"))
	if err != nil {
		return runResult{}, err
	}
	args := []string{"-serve", "-policy", "fair", "-export", "out.csv"}
	if backfill {
		args = append(args, "-backfill")
	}
	cmd, cancel := command(e.dir, e.qcloudsim(), args...)
	defer cancel()
	var fc finishCounter
	cmd.Stdin = bytes.NewReader(stream)
	cmd.Stdout = &lineWriter{fn: fc.line}
	wall, ps, err := runTimed(cmd)
	if err != nil {
		return runResult{}, err
	}
	out, err := readOutput(e.path("out.csv"))
	if err != nil {
		return runResult{}, err
	}
	return runResult{wallS: wall, ps: ps, finished: fc.n, out: out}, nil
}

func (w *serveWorkload) measure(e *benchEnv) (runResult, error) {
	r, err := serveExport(e, false)
	if err != nil {
		return r, err
	}
	if rows := exportRows(r.out); rows != r.finished {
		return r, fmt.Errorf("lifecycle stream reports %d finished jobs, export has %d rows", r.finished, rows)
	}
	return r, nil
}

func (w *serveWorkload) inProcess(e *benchEnv, tr *tracer) (passResult, error) {
	return serveInProcess(e, tr, w.n)
}

// backfillWorkload runs the batch engine with backfill dispatch over a
// CSV workload file.
type backfillWorkload struct {
	n            int
	interarrival float64
}

func (w *backfillWorkload) jobs() int { return w.n }

func (w *backfillWorkload) setup(e *benchEnv) error { return writeWorkload(e, w.n, w.interarrival) }

func (w *backfillWorkload) reference(e *benchEnv) ([]byte, error) {
	r, err := serveExport(e, true)
	return r.out, err
}

func (w *backfillWorkload) measure(e *benchEnv) (runResult, error) {
	cmd, cancel := command(e.dir, e.qcloudsim(), "-backfill", "-policy", "fair", "-jobs", "w.csv", "-export", "out.csv")
	defer cancel()
	wall, ps, err := runTimed(cmd)
	if err != nil {
		return runResult{}, err
	}
	out, err := readOutput(e.path("out.csv"))
	if err != nil {
		return runResult{}, err
	}
	return runResult{wallS: wall, ps: ps, finished: exportRows(out), out: out}, nil
}

func (w *backfillWorkload) inProcess(e *benchEnv, tr *tracer) (passResult, error) {
	return backfillInProcess(e, tr, w.n)
}

// since returns the host seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
