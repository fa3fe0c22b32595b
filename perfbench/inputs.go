package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/job"
	"repro/internal/records"
)

// benchEnv is where one invocation builds, reads and writes.
type benchEnv struct {
	bin     string // directory holding the built qcloudsim and experiments
	dir     string // the workload's working directory
	seed    int64
	workers int // worker pool for the experiments executor
}

func (e *benchEnv) path(name string) string { return filepath.Join(e.dir, name) }
func (e *benchEnv) qcloudsim() string       { return filepath.Join(e.bin, "qcloudsim") }
func (e *benchEnv) experiments() string     { return filepath.Join(e.bin, "experiments") }

// fleetSeed is the calibration snapshot every workload runs on, the
// default of both binaries.
const fleetSeed = 2025

// generate draws the paper's §7 workload (q in [130,250], the 5x127
// qubit fleet's distribution) with the given size and mean
// inter-arrival time.
func generate(n int, interarrival float64, seed int64) ([]*job.QJob, error) {
	cfg := job.DefaultSyntheticConfig()
	cfg.N = n
	cfg.MeanInterarrival = interarrival
	cfg.Seed = seed
	return job.Synthetic(cfg)
}

// writeJobs writes jobs to path with one of the job package's writers.
func writeJobs(path string, jobs []*job.QJob, write func(w io.Writer, jobs []*job.QJob) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w, jobs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeWorkload generates a workload and writes it as w.csv (the batch
// loader's format) and w.ndjson (the stream decoder's format).
func writeWorkload(e *benchEnv, n int, interarrival float64) error {
	jobs, err := generate(n, interarrival, e.seed)
	if err != nil {
		return err
	}
	if err := writeJobs(e.path("w.csv"), jobs, job.WriteCSV); err != nil {
		return err
	}
	return writeJobs(e.path("w.ndjson"), jobs, job.WriteNDJSON)
}

// provenanceColumns is how many trailing export columns record ingest
// provenance (source, remote, conn_id): empty for batch and stdin
// rows, stamped on HTTP rows.
const provenanceColumns = 3

// stripProvenance drops the ingest-provenance columns from a records
// export, so an HTTP-fed export can be compared with a batch one. With
// wantSource set, every data row must carry that source.
func stripProvenance(export []byte, wantSource string) ([]byte, error) {
	rows, err := csv.NewReader(bytes.NewReader(export)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reading export: %w", err)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	for i, row := range rows {
		if len(row) < provenanceColumns {
			return nil, fmt.Errorf("export row %d has %d columns", i+1, len(row))
		}
		keep := len(row) - provenanceColumns
		if i > 0 && wantSource != "" && row[keep] != wantSource {
			return nil, fmt.Errorf("export row %d has ingest source %q, want %q", i+1, row[keep], wantSource)
		}
		if err := w.Write(row[:keep]); err != nil {
			return nil, err
		}
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

// exportRows counts the data rows of a records export.
func exportRows(export []byte) int {
	return max(bytes.Count(export, []byte{'\n'})-1, 0)
}

// normalizeManifest reduces a run manifest to what experiments -diff
// compares: the rows without wall time or execution provenance, and
// no worker count.
func normalizeManifest(data []byte) ([]byte, *records.RunManifest, error) {
	m, err := records.ReadManifestJSON(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	rows := append([]records.RunSummary(nil), m.Runs...)
	for i := range rows {
		rows[i].WallMS = 0
		rows[i].Host = ""
		rows[i].Attempt = 0
	}
	out, err := json.MarshalIndent(struct {
		Label string               `json:"label"`
		Runs  []records.RunSummary `json:"runs"`
	}{m.Label, rows}, "", "  ")
	return out, m, err
}

// queueProfile summarizes how many jobs each arrival found waiting:
// jobs that arrived earlier and had not started yet. Computed from the
// lifecycle records, it equals sampling the broker's queue depth at
// every submit.
type queueProfile struct {
	mean, max, queuedShare float64
}

func profileQueue(rows []*records.JobStats) queueProfile {
	if len(rows) == 0 {
		return queueProfile{}
	}
	arrivals := make([]*records.JobStats, len(rows))
	copy(arrivals, rows)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Arrival < arrivals[j].Arrival })
	starts := make([]float64, len(rows))
	for i, r := range rows {
		starts[i] = r.Start
	}
	sort.Float64s(starts)
	var sum, queued float64
	var peak int
	for i, r := range arrivals {
		// Jobs start no earlier than they arrive, so every start at or
		// before this arrival belongs to an earlier job or to this one.
		started := sort.Search(len(starts), func(k int) bool { return starts[k] > r.Arrival })
		if r.Start <= r.Arrival {
			started--
		}
		depth := max(i-started, 0)
		sum += float64(depth)
		peak = max(peak, depth)
		if depth > 0 {
			queued++
		}
	}
	n := float64(len(rows))
	return queueProfile{mean: sum / n, max: float64(peak), queuedShare: queued / n}
}
