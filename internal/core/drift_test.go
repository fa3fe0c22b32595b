package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
)

func TestCalibrationDriftRequiresWorkload(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	if err := e.EnableCalibrationDrift(3600, 0.1, 1); err == nil {
		t.Fatal("drift without workload accepted")
	}
}

func TestCalibrationDriftValidation(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	e.SubmitWorkload(smallWorkload(t, 5))
	if err := e.EnableCalibrationDrift(0, 0.1, 1); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := e.EnableCalibrationDrift(3600, -1, 1); err == nil {
		t.Fatal("negative magnitude accepted")
	}
}

func TestCalibrationDriftChangesScoresAndTerminates(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	before := make(map[string]float64)
	for _, d := range e.Broker.Devices() {
		before[d.Name()] = d.ErrorScore()
	}
	e.SubmitWorkload(smallWorkload(t, 30))
	if err := e.EnableCalibrationDrift(1800, 0.2, 7); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run() // must terminate despite the background process
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsFinished != 30 {
		t.Fatalf("finished = %d", res.JobsFinished)
	}
	changed := 0
	for _, d := range e.Broker.Devices() {
		if d.ErrorScore() != before[d.Name()] {
			changed++
		}
		if d.ErrorScore() <= 0 || d.ErrorScore() > 1 {
			t.Fatalf("%s: drifted score %g out of range", d.Name(), d.ErrorScore())
		}
	}
	if changed == 0 {
		t.Fatal("drift never changed any error score")
	}
}

func TestCalibrationDriftReroutesFidelityPolicy(t *testing.T) {
	// Without drift the fidelity policy sends every job to the same
	// designated pair; with strong drift the error ranking churns and
	// load reaches more devices.
	staticEnv := buildEnv(t, policy.Fidelity{})
	staticEnv.SubmitWorkload(smallWorkload(t, 40))
	if _, err := staticEnv.Run(); err != nil {
		t.Fatal(err)
	}
	staticDevices := len(staticEnv.Records.DeviceLoadShare())

	driftEnv := buildEnv(t, policy.Fidelity{})
	driftEnv.SubmitWorkload(smallWorkload(t, 40))
	if err := driftEnv.EnableCalibrationDrift(2000, 0.5, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := driftEnv.Run(); err != nil {
		t.Fatal(err)
	}
	driftDevices := len(driftEnv.Records.DeviceLoadShare())

	if staticDevices > 3 {
		t.Fatalf("static fidelity policy used %d devices, expected a small designated set", staticDevices)
	}
	if driftDevices <= staticDevices {
		t.Fatalf("drift should spread load: static %d devices, drift %d", staticDevices, driftDevices)
	}
	if free := device.TotalFree(driftEnv.Broker.Devices()); free != 635 {
		t.Fatalf("leaked qubits under drift: %d", free)
	}
}

func TestCalibrationDriftDeterministic(t *testing.T) {
	run := func() Results {
		e := buildEnv(t, policy.Fidelity{})
		e.SubmitWorkload(smallWorkload(t, 20))
		if err := e.EnableCalibrationDrift(2500, 0.3, 5); err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("drifted runs diverge:\n%v\n%v", a, b)
	}
}

// TestDriftStopsPromptly ensures the drift process does not keep the
// simulation alive long after the last job: the final event time should
// be within one interval of the last finish.
func TestDriftStopsPromptly(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	e.SubmitWorkload(smallWorkload(t, 10))
	const interval = 1000.0
	if err := e.EnableCalibrationDrift(interval, 0.1, 3); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end := e.Env.Now(); end > res.TotalSimTime+interval {
		t.Fatalf("drift process overran: env ended at %g, last job at %g", end, res.TotalSimTime)
	}
}

// A job larger than the fleet can never start. With drift on, Run must
// still return the unfinished-jobs error once the other work is done,
// not recalibrate an idle fleet forever.
func TestCalibrationDriftStopsWithUnplaceableJob(t *testing.T) {
	e := buildEnv(t, policy.Speed{})
	e.SubmitWorkload([]*job.QJob{
		{ID: "fits", NumQubits: 190, Depth: 10, Shots: 40000, TwoQubitGates: 475},
		{ID: "too-big", NumQubits: 700, Depth: 5, Shots: 1000, TwoQubitGates: 1, ArrivalTime: 10},
	})
	if err := e.EnableCalibrationDrift(3600, 0.2, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "1 jobs unfinished") {
			t.Fatalf("Run error = %v, want 1 jobs unfinished", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return: calibration drift kept the simulation alive")
	}
}
