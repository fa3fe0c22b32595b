package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/rlsched"
	"repro/internal/sim"
)

// batchEngineDigests pins the batch engine's output: each value is the
// SHA-256 of Records.WriteCSV followed by Results.String(). The values
// were recorded on the goroutine-per-job engine that batch runs used
// before they were driven through the Broker, so they hold the batch
// path to that engine's dispatch decisions, float arithmetic and
// same-time event order, not to a reference built from the code under
// test.
var batchEngineDigests = map[string]string{
	"fair/fifo":                         "567800490a875fcfa9164aaf50bb1907cdfb9a6960ea02394f51b4aa6e5b7c28",
	"fair/backfill":                     "7401e19a1035e9a7a1fb3f25a4e253dd7b063e0fa0e806c12b25046f9321a873",
	"fair-proportional/fifo":            "1b2a940fd7a8f1d81327306a86cac7de7fc9e1d0ce347c075c6072f925ec91af",
	"fair-proportional/backfill":        "1c395be810a8dd83a530f1ee71660e24d6693d6ccc41288f05161c8153a2c5a5",
	"fidelity/fifo":                     "595157edddfa4c7b5c51b2dfedcb79569617f8457c0a5c9953bc51903be82578",
	"fidelity/backfill":                 "595157edddfa4c7b5c51b2dfedcb79569617f8457c0a5c9953bc51903be82578",
	"oracle/fifo":                       "5e0c9136a45fa6862b3851534ad0cf4f416f24d952380abefe60756a30231b90",
	"oracle/backfill":                   "7e2e9b913bad12b392f85c867cb54ddca15de0b8defc6176bacd9106780cbcb9",
	"rlbase/fifo":                       "3beb2b5373f0f042e4ee90e88b2ff0a256ae231d85231efd47cc8988bd5ce780",
	"rlbase/backfill":                   "e1d9739d30d22951e6168b9d217460146bb03b4f37ec91b5a4f3d8511bd5af03",
	"speed/fifo":                        "e437aa75a583d2f00bb44e36e33efa660d0c0e1d1941687b0cf8b1c61ee33f05",
	"speed/backfill":                    "507231fc54e24e51fab89f106b22c9aaa8b2bd8e497f6245d94f3981d8c051c8",
	"speed-proportional/fifo":           "614a079e2b2b8ce46596d8e190b80fd888bccc5061b0e1a33c9fba6398f36b05",
	"speed-proportional/backfill":       "ea4a66e32f5d60ed26548701903a3cb3c3d2e2c4780615fff0b9d2994b4ad938",
	"speed/drift":                       "1a6f763fafb0eb575cef9bb77469c4a97e94bf89f68abd8625bd7086b45b3789",
	"fidelity/drift":                    "dea2efd50180267873c0204cac44de43d6f43a5bb8961189202af4872ecbfec6",
	"speed/shared-arrivals":             "c7cfce0820bcb9ea1a5e3d956368b023bd85008b80769af3ac43f7423a619ed5",
	"fidelity/shared-arrivals":          "a5adfae5017f57a5d6cd9241e6449c5db63ad02373160d879cef1d53700b11e5",
	"fair/shared-arrivals-backfill":     "f9295a8b22eb3a4c051148b8fec43b69815b6e65444d866d983231dfe94c19ef",
	"speed/drift-tick-arrivals":         "e6d6fc2d4f9a1c15a67dc314ff16c8dc9853486f48169f30db124f93f7b2ca68",
	"fidelity/drift-tick-arrivals":      "d85e0f61e8801aca34a584a880414cbfd9d4db8df369275a60d81b316c7d9f9b",
	"speed/single-device-ties":          "9a9e51bd362e57b5cb4cf4719dc43744e1ef174a93ace3b9131f2f5bea2c2a2b",
	"fair/single-device-ties":           "8e371c7eadc6cf6ffdf3daccb54c2faa3f3c9521cc3bdde9e1534ffb75867bd2",
	"fidelity/single-device-ties-drift": "da5bae8939b7ccfc2b5dbd0411e4f4d35425c9996cd88c33fd2b059727b3011a",
}

// digestCase is one pinned batch run.
type digestCase struct {
	name     string
	policy   string
	backfill bool
	drift    bool
	// driftInterval overrides the 3600 s default drift interval.
	driftInterval float64
	jobs          func(t *testing.T) []*job.QJob
}

// digestPolicy builds a registered policy the same way on every engine.
// rlbase gets a small untrained net, as TestBrokerMatchesBatchRecordsRLBase
// uses.
func digestPolicy(t *testing.T, name string) policy.Policy {
	t.Helper()
	p := policy.Params{Seed: 11, Phi: DefaultConfig().Phi}
	if policy.NeedsModel(name) {
		p.Model = rl.NewGaussianPolicy(rand.New(rand.NewSource(3)), rlsched.StateDim, rlsched.NumDevices, 16, 16)
	}
	pol, err := policy.New(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// sharedArrivals groups the synthetic workload four jobs to an arrival
// time, the first group at t=0: several admissions in one event.
func sharedArrivals(t *testing.T) []*job.QJob {
	jobs := smallWorkload(t, 60)
	for i, j := range jobs {
		j.ArrivalTime = float64(i/4) * 240
	}
	return jobs
}

// integerArrivals spaces jobs exactly 600 s apart, so every sixth
// arrival lands on a 3600 s drift tick, mostly on an idle enough fleet
// that the job is placed at once.
func integerArrivals(t *testing.T) []*job.QJob {
	jobs := smallWorkload(t, 40)
	for i, j := range jobs {
		j.ArrivalTime = float64(i * 600)
	}
	return jobs
}

// singleDeviceTies uses jobs small enough for one device, so no
// communication step follows execution. Their shots make the run time on
// the two 220k-CLOPS devices a whole multiple of 70 s and they arrive
// every 70 s, so finishes land on arrival times, and with a 3500 s
// interval on drift ticks too.
func singleDeviceTies(*testing.T) []*job.QJob {
	jobs := make([]*job.QJob, 60)
	for i := range jobs {
		jobs[i] = &job.QJob{
			ID:            fmt.Sprintf("tie-%02d", i),
			NumQubits:     40 + (i*37)%80,
			Depth:         5 + i%7,
			Shots:         22000 * (1 + i%3),
			TwoQubitGates: 30 + i%11,
			ArrivalTime:   float64(i * 70),
		}
	}
	return jobs
}

func digestCases() []digestCase {
	base := func(t *testing.T) []*job.QJob { return smallWorkload(t, 80) }
	var cases []digestCase
	for _, name := range policy.Names() {
		cases = append(cases,
			digestCase{name: name + "/fifo", policy: name, jobs: base},
			digestCase{name: name + "/backfill", policy: name, backfill: true, jobs: base})
	}
	return append(cases,
		digestCase{name: "speed/drift", policy: "speed", drift: true, jobs: base},
		digestCase{name: "fidelity/drift", policy: "fidelity", drift: true, jobs: base},
		digestCase{name: "speed/shared-arrivals", policy: "speed", jobs: sharedArrivals},
		digestCase{name: "fidelity/shared-arrivals", policy: "fidelity", jobs: sharedArrivals},
		digestCase{name: "fair/shared-arrivals-backfill", policy: "fair", backfill: true, jobs: sharedArrivals},
		digestCase{name: "speed/drift-tick-arrivals", policy: "speed", drift: true, jobs: integerArrivals},
		digestCase{name: "fidelity/drift-tick-arrivals", policy: "fidelity", drift: true, jobs: integerArrivals},
		digestCase{name: "speed/single-device-ties", policy: "speed", jobs: singleDeviceTies},
		digestCase{name: "fair/single-device-ties", policy: "fair", jobs: singleDeviceTies},
		digestCase{name: "fidelity/single-device-ties-drift", policy: "fidelity", drift: true, driftInterval: 3500, jobs: singleDeviceTies},
	)
}

// batchDigest runs one case through QCloudSimEnv and hashes its output.
func batchDigest(t *testing.T, c digestCase) string {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Backfill = c.backfill
	e, err := NewQCloudSimEnv(env, fleet, digestPolicy(t, c.policy), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SubmitWorkload(c.jobs(t))
	if c.drift {
		interval := 3600.0
		if c.driftInterval > 0 {
			interval = c.driftInterval
		}
		if err := e.EnableCalibrationDrift(interval, 0.3, 17); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Records.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(res.String())
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestBatchEngineDigests pins batch-run exports for every registered
// policy, FIFO and backfill, calibration drift, and the same-time
// orderings: jobs sharing an arrival (t=0 included) and arrivals that
// coincide with drift ticks.
func TestBatchEngineDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other ports may fuse x*y+z into one rounding, which changes
		// the low bits of fidelities and times.
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	for _, c := range digestCases() {
		t.Run(c.name, func(t *testing.T) {
			got := batchDigest(t, c)
			want, ok := batchEngineDigests[c.name]
			if !ok {
				t.Fatalf("no pinned digest; this run gives %q", got)
			}
			if got != want {
				t.Fatalf("digest %s, want %s", got, want)
			}
		})
	}
}
