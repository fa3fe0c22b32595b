// Config-driven simulation: the paper's Configurations Layer (§3) lets
// users define the entire experiment — devices, topologies, calibration,
// workload, policy, model constants — as JSON, without touching code.
// This example builds a heterogeneous three-device cloud (different
// sizes, speeds, and topologies) from an embedded spec and runs it.
//
//	go run ./examples/configdriven
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
)

const spec = `{
  "devices": [
    {"name": "eagle_fast", "num_qubits": 127, "clops": 220000,
     "topology": "heavy-hex",
     "calibration": {"median_readout": 0.014, "median_1q": 2.6e-4,
                     "median_2q": 9e-3, "seed": 1}},
    {"name": "lattice_clean", "num_qubits": 100, "clops": 45000,
     "topology": "grid:10x10",
     "calibration": {"median_readout": 0.009, "median_1q": 2.0e-4,
                     "median_2q": 6e-3, "seed": 2}},
    {"name": "chain_legacy", "num_qubits": 80, "clops": 20000,
     "topology": "line",
     "calibration": {"median_readout": 0.022, "median_1q": 3.5e-4,
                     "median_2q": 1.5e-2, "seed": 3}}
  ],
  "workload": {"source": "synthetic",
               "synthetic": {"n": 40, "min_qubits": 130, "max_qubits": 250,
                             "min_depth": 5, "max_depth": 20,
                             "min_shots": 10000, "max_shots": 100000,
                             "mean_interarrival": 60, "seed": 4}},
  "policy": "fidelity",
  "model": {"m": 10, "k": 10, "phi": 0.95, "lambda": 0.02}
}`

func main() {
	s, err := config.Load(strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	env := sim.NewEnvironment()
	simEnv, jobs, err := s.Build(env, "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cloud from spec:")
	for _, d := range simEnv.Broker.Devices() {
		fmt.Printf("  %-14s %3d qubits  CLOPS %6.0f  error score %.5f  topology edges %d\n",
			d.Name(), d.NumQubits(), d.CLOPS(), d.ErrorScore(), d.Topology().NumEdges())
	}

	simEnv.SubmitWorkload(jobs)
	res, err := simEnv.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%v\n", res)
	fmt.Println("device load (error-aware policy prefers the clean lattice):")
	for _, share := range simEnv.Records.DeviceLoadShare() {
		fmt.Printf("  %-14s %3d sub-jobs (%.0f%%)\n", share.Name, share.SubJobs, 100*share.Share)
	}
}
