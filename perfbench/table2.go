package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/records"
)

// table2Workload runs an experiments spec with the modes matrix (speed,
// fidelity, fair, rlbase) on the paper scenario over a generated trace,
// PPO training included, on the Parallel executor.
type table2Workload struct {
	n            int
	interarrival float64
	trainSteps   int
}

func (w *table2Workload) jobs() int { return w.n * len(experiments.Modes) }

func (w *table2Workload) setup(e *benchEnv) error {
	jobs, err := generate(w.n, w.interarrival, e.seed)
	if err != nil {
		return err
	}
	if err := writeJobs(e.path("w.csv"), jobs, job.WriteCSV); err != nil {
		return err
	}
	spec := experiments.Spec{
		Name:       table2W,
		Scenario:   "paper",
		Matrices:   []experiments.TaskMatrix{{Kind: "modes"}},
		TracePath:  "w.csv",
		TrainSteps: w.trainSteps,
	}
	var buf bytes.Buffer
	if err := spec.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(e.path("spec.json"), buf.Bytes(), 0o644)
}

// runSpec runs experiments -spec with the given worker count into
// outDir and returns its wall time, resource use and manifest.
func runSpec(e *benchEnv, workers int, outDir string) (float64, procStats, []byte, error) {
	if err := os.RemoveAll(e.path(outDir)); err != nil {
		return 0, procStats{}, nil, err
	}
	cmd, cancel := command(e.dir, e.experiments(), "-spec", "spec.json", "-workers", strconv.Itoa(workers),
		"-progress=false", "-out", outDir)
	defer cancel()
	wall, ps, err := runTimed(cmd)
	if err != nil {
		return 0, procStats{}, nil, err
	}
	data, err := os.ReadFile(filepath.Join(e.dir, outDir, "manifest.json"))
	return wall, ps, data, err
}

func (w *table2Workload) reference(e *benchEnv) ([]byte, error) {
	_, _, data, err := runSpec(e, 1, "ref")
	if err != nil {
		return nil, err
	}
	out, _, err := normalizeManifest(data)
	return out, err
}

func (w *table2Workload) measure(e *benchEnv) (runResult, error) {
	wall, ps, data, err := runSpec(e, e.workers, "run")
	if err != nil {
		return runResult{}, err
	}
	r := runResult{wallS: wall, ps: ps}
	out, m, err := normalizeManifest(data)
	if err != nil {
		return r, err
	}
	for _, row := range m.Runs {
		r.finished += row.Jobs
	}
	cmd, cancel := command(e.dir, e.experiments(), "-diff", filepath.Join("ref", "manifest.json"), filepath.Join("run", "manifest.json"))
	defer cancel()
	cmd.Stdout = nil
	if _, _, err := runTimed(cmd); err != nil {
		return r, fmt.Errorf("manifest differs from the -workers 1 run: %w", err)
	}
	r.out = out
	return r, nil
}

// inProcess loads the spec, trains, and runs every mode on a pool of
// e.workers goroutines, each on its own copy of the case study with a
// cloned policy, as the Parallel executor does. It writes the manifest
// as the binary does.
func (w *table2Workload) inProcess(e *benchEnv, tr *tracer) (passResult, error) {
	start := time.Now()
	root := tr.begin(spanRun, 0)
	spec, err := experiments.LoadSpecFile(e.path("spec.json"))
	if err != nil {
		return passResult{}, err
	}
	cs, err := spec.CaseStudy()
	if err != nil {
		return passResult{}, err
	}
	// The binary resolves the trace against its working directory.
	cs.TracePath = e.path(spec.TracePath)

	id := tr.begin(spanTrain, 0)
	trained, _, err := cs.TrainRL(nil)
	tr.end(id)
	if err != nil {
		return passResult{}, err
	}

	phase := tr.begin(spanSimulatePhase, 0)
	modes := experiments.Modes
	runs := make([]*experiments.ModeRun, len(modes))
	errs := make([]error, len(modes))
	next := make(chan int, len(modes))
	for i := range modes {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := *cs
				c.UseTrainedPolicy(trained.Clone())
				sid := tr.beginUnder(spanSimulate, phase, int32(i+1))
				runs[i], errs[i] = c.RunMode(modes[i])
				tr.endUnder(sid)
			}
		}()
	}
	wg.Wait()
	tr.end(phase)

	m := &records.RunManifest{Label: spec.Label(), Workers: e.workers}
	for i, mode := range modes {
		if errs[i] != nil {
			return passResult{}, errs[i]
		}
		art := experiments.RunArtifact{
			ID: "mode/" + mode, Kind: "mode", Mode: mode,
			Workload: cs.Workload, Core: cs.Core, FleetPreset: cs.FleetPreset,
			TracePath: spec.TracePath, FleetSeed: cs.FleetSeed, RLSeed: cs.RLSeed,
			TrainSteps: cs.TrainSteps, RLDeterministic: cs.RLDeterministic,
			Results: runs[i].Results,
		}
		m.Runs = append(m.Runs, art.Summary())
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return passResult{}, err
	}
	if err := os.WriteFile(e.path("inproc.json"), buf.Bytes(), 0o644); err != nil {
		return passResult{}, err
	}
	tr.end(root)
	p := passResult{wallS: since(start)}
	if p.out, _, err = normalizeManifest(buf.Bytes()); err != nil {
		return passResult{}, err
	}
	for i, mode := range modes {
		if mode == "fair" {
			p.queue = profileQueue(runs[i].Records.Finished())
		}
	}
	if tr != nil {
		t := tr.totals()
		p.layers = newLayers()
		train := t[spanTrain].dur
		p.layers["rlsched.train_s"] = train
		p.layers["rl.steps_per_s"] = float64(cs.TrainSteps) / train
		for _, s := range tr.spans {
			if s.name == spanSimulate {
				p.layers["experiments.simulate_s."+modes[s.req-1]] = float64(s.end-s.start) / 1e9
			}
		}
		p.simulateS = t[spanSimulatePhase].dur
		p.layers["core.queue_depth_mean"] = p.queue.mean
		p.layers["core.queue_depth_max"] = p.queue.max
		p.layers["core.queued_share"] = p.queue.queuedShare
	}
	return p, nil
}
