package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

const validSpec = `{
  "devices": [
    {"name": "qpu_fast", "num_qubits": 127, "clops": 220000,
     "topology": "heavy-hex",
     "calibration": {"median_readout": 0.014, "median_1q": 2.6e-4,
                     "median_2q": 9e-3, "seed": 1}},
    {"name": "qpu_clean", "num_qubits": 127, "clops": 30000,
     "calibration": {"median_readout": 0.010, "median_1q": 2.2e-4,
                     "median_2q": 7e-3, "seed": 2}},
    {"name": "qpu_grid", "num_qubits": 128, "clops": 50000,
     "topology": "grid:8x16",
     "calibration": {"median_readout": 0.012, "median_1q": 2.4e-4,
                     "median_2q": 8e-3, "seed": 3}}
  ],
  "workload": {"source": "synthetic",
               "synthetic": {"n": 12, "min_qubits": 130, "max_qubits": 250,
                             "min_depth": 5, "max_depth": 20,
                             "min_shots": 10000, "max_shots": 100000,
                             "mean_interarrival": 60, "seed": 4}},
  "policy": "fidelity",
  "model": {"m": 10, "k": 10, "phi": 0.95, "lambda": 0.02}
}`

func TestLoadValidSpec(t *testing.T) {
	s, err := Load(strings.NewReader(validSpec))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(s.Devices) != 3 || s.Policy != "fidelity" {
		t.Fatalf("spec = %+v", s)
	}
}

func TestBuildAndRunFromSpec(t *testing.T) {
	s, err := Load(strings.NewReader(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnvironment()
	simEnv, jobs, err := s.Build(env, "")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(jobs) != 12 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	devs := simEnv.Broker.Devices()
	if len(devs) != 3 {
		t.Fatalf("devices = %d", len(devs))
	}
	if devs[0].Name() != "qpu_fast" || devs[0].CLOPS() != 220000 {
		t.Fatalf("device 0: %v", devs[0])
	}
	if devs[2].NumQubits() != 128 {
		t.Fatalf("grid device qubits = %d", devs[2].NumQubits())
	}
	// The low-error device should have the lower error score, so the
	// fidelity policy will prefer it.
	if devs[1].ErrorScore() >= devs[0].ErrorScore() {
		t.Fatal("qpu_clean should have lower error score than qpu_fast")
	}
	simEnv.SubmitWorkload(jobs)
	res, err := simEnv.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.JobsFinished != 12 {
		t.Fatalf("finished = %d", res.JobsFinished)
	}
}

func TestLoadRejectsInvalidSpecs(t *testing.T) {
	mutate := func(from, to string) string {
		out := strings.Replace(validSpec, from, to, 1)
		if out == validSpec {
			t.Fatalf("mutation %q not applied", from)
		}
		return out
	}
	cases := []string{
		`{"devices": []}`,
		mutate(`"name": "qpu_fast"`, `"name": ""`),
		mutate(`"name": "qpu_clean"`, `"name": "qpu_fast"`),
		mutate(`"num_qubits": 127, "clops": 220000`, `"num_qubits": 0, "clops": 220000`),
		mutate(`"clops": 30000`, `"clops": 0`),
		mutate(`"topology": "grid:8x16"`, `"topology": "grid:9x16"`),
		mutate(`"topology": "heavy-hex"`, `"topology": "donut"`),
		mutate(`"median_readout": 0.014`, `"median_readout": 0`),
		mutate(`"policy": "fidelity"`, `"policy": "warp"`),
		mutate(`"policy": "fidelity"`, `"policy": "rlbase"`),
		mutate(`"source": "synthetic"`, `"source": "csv"`),
		mutate(`"phi": 0.95`, `"phi": 1.5`),
		mutate(`"m": 10`, `"m": 0`),
		mutate(`"lambda": 0.02`, `"lambda": -1`),
		`not json`,
		mutate(`"model"`, `"extra_field": 1, "model"`),
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestCSVWorkloadSourceWithRelativePath(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "jobs.csv")
	if err := os.WriteFile(csvPath, []byte("j1,150,10,50000,0\nj2,140,8,20000,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := strings.Replace(validSpec,
		`"workload": {"source": "synthetic",`,
		`"workload": {"source": "csv", "path": "jobs.csv", "_":`, 1)
	// The replace above is awkward; build the spec directly instead.
	spec = strings.Replace(validSpec,
		`{"source": "synthetic",
               "synthetic": {"n": 12, "min_qubits": 130, "max_qubits": 250,
                             "min_depth": 5, "max_depth": 20,
                             "min_shots": 10000, "max_shots": 100000,
                             "mean_interarrival": 60, "seed": 4}}`,
		`{"source": "csv", "path": "jobs.csv"}`, 1)
	s, err := Load(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	jobs, err := s.BuildWorkload(dir)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	if len(jobs) != 2 || jobs[0].ID != "j1" {
		t.Fatalf("jobs = %v", jobs)
	}
	// Missing file errors cleanly.
	if _, err := s.BuildWorkload(t.TempDir()); err == nil {
		t.Fatal("missing workload file accepted")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(validSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTopologyVariants(t *testing.T) {
	for _, tc := range []struct {
		spec string
		n    int
		ok   bool
	}{
		{"", 127, true},
		{"heavy-hex", 127, true},
		{"heavy-hex", 64, true},
		{"line", 10, true},
		{"complete", 8, true},
		{"grid:2x5", 10, true},
		{"grid:2x4", 10, false},
		{"grid:ax5", 10, false},
		{"grid:25", 10, false},
		{"hypercube", 8, false},
	} {
		g, err := parseTopology(tc.spec, tc.n)
		if tc.ok && err != nil {
			t.Errorf("topology %q/%d: %v", tc.spec, tc.n, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("topology %q/%d accepted", tc.spec, tc.n)
			}
			continue
		}
		if g.NumVertices() != tc.n {
			t.Errorf("topology %q: %d vertices, want %d", tc.spec, g.NumVertices(), tc.n)
		}
		if !g.Connected() {
			t.Errorf("topology %q/%d not connected", tc.spec, tc.n)
		}
	}
}

func TestBuildPolicyVariants(t *testing.T) {
	s, _ := Load(strings.NewReader(validSpec))
	for _, name := range []string{"speed", "fair", "fidelity", "speed-proportional", "fair-proportional"} {
		s.Policy = name
		p, err := s.BuildPolicy("")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy %q built as %q", name, p.Name())
		}
	}
	s.Policy = "rlbase"
	s.RLModelPath = "missing.json"
	if _, err := s.BuildPolicy(t.TempDir()); err == nil {
		t.Fatal("missing RL model accepted")
	}
}
