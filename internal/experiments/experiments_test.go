package experiments

import (
	"context"
	"testing"

	"repro/internal/policy"
)

// smallCase returns a scaled-down case study that keeps test time low
// while preserving queueing pressure (jobs arrive faster than the cloud
// drains them).
func smallCase() *CaseStudy {
	cs := Default()
	cs.Workload.N = 60
	cs.Workload.Seed = 3
	cs.TrainSteps = 2048
	cs.PPO.NSteps = 512
	cs.PPO.BatchSize = 64
	cs.PPO.NEpochs = 3
	return cs
}

func TestRunModeUnknown(t *testing.T) {
	if _, err := smallCase().RunMode("warp"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestPolicyForPassesSimulationPhi: registry-built policies receive the
// case study's configured φ, so a phi-sweep over a fidelity-predictive
// mode (oracle) scores allocations with the same penalty the
// simulation applies — including the swept value on task snapshots.
func TestPolicyForPassesSimulationPhi(t *testing.T) {
	cs := smallCase()
	cs.Core.Phi = 0.88
	pol, err := cs.policyFor("oracle")
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := pol.(policy.Oracle); !ok || o.Phi != 0.88 {
		t.Fatalf("oracle policy = %#v, want the simulation's Phi 0.88", pol)
	}
}

func TestRunModeCompletesAllJobs(t *testing.T) {
	cs := smallCase()
	for _, mode := range []string{"speed", "fair", "fidelity"} {
		run, err := cs.RunMode(mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if run.Results.JobsFinished != 60 {
			t.Fatalf("%s: finished %d of 60", mode, run.Results.JobsFinished)
		}
		if len(run.Fidelities) != 60 {
			t.Fatalf("%s: %d fidelity samples", mode, len(run.Fidelities))
		}
		if run.Results.Policy != mode {
			t.Fatalf("%s: results labeled %q", mode, run.Results.Policy)
		}
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full case-study shape test")
	}
	cs := smallCase()
	cs.Workload.N = 150
	rows, err := cs.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[string]int{}
	for i, r := range rows {
		byMode[r.Policy] = i
	}
	speed := rows[byMode["speed"]]
	fid := rows[byMode["fidelity"]]
	fair := rows[byMode["fair"]]
	rlr := rows[byMode["rlbase"]]

	// Paper Table 2 shape assertions.
	if !(fid.FidelityMean > speed.FidelityMean &&
		fid.FidelityMean > fair.FidelityMean &&
		fid.FidelityMean > rlr.FidelityMean) {
		t.Errorf("fidelity mode should win on fidelity: %+v", rows)
	}
	if !(rlr.FidelityMean < speed.FidelityMean && rlr.FidelityMean < fair.FidelityMean) {
		t.Errorf("rlbase should have the lowest fidelity: rl=%.4f speed=%.4f fair=%.4f",
			rlr.FidelityMean, speed.FidelityMean, fair.FidelityMean)
	}
	if ratio := fid.TotalSimTime / speed.TotalSimTime; ratio < 1.5 || ratio > 6 {
		t.Errorf("fidelity/speed Tsim ratio = %.2f, want the paper's ~2-3x regime", ratio)
	}
	if !(fid.TotalCommTime < speed.TotalCommTime && fid.TotalCommTime < fair.TotalCommTime &&
		fid.TotalCommTime < rlr.TotalCommTime) {
		t.Errorf("fidelity mode should have the lowest comm: %+v", rows)
	}
	if !(rlr.TotalCommTime > speed.TotalCommTime && rlr.TotalCommTime > fair.TotalCommTime) {
		t.Errorf("rlbase should have the highest comm: rl=%.0f speed=%.0f fair=%.0f",
			rlr.TotalCommTime, speed.TotalCommTime, fair.TotalCommTime)
	}
	// Speed and fair form a close middle cluster on runtime.
	if speed.TotalSimTime > 1.3*fair.TotalSimTime || fair.TotalSimTime > 1.3*speed.TotalSimTime {
		t.Errorf("speed (%.0f) and fair (%.0f) Tsim should be close",
			speed.TotalSimTime, fair.TotalSimTime)
	}
}

func TestTrainRLCachesPolicy(t *testing.T) {
	cs := smallCase()
	p1, h1, err := cs.TrainRL(nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, h2, err := cs.TrainRL(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || len(h1) != len(h2) {
		t.Fatal("TrainRL should cache the trained policy")
	}
}

func TestUseTrainedPolicySkipsTraining(t *testing.T) {
	cs := smallCase()
	donor := smallCase()
	pol, _, err := donor.TrainRL(nil)
	if err != nil {
		t.Fatal(err)
	}
	cs.UseTrainedPolicy(pol)
	run, err := cs.RunMode("rlbase")
	if err != nil {
		t.Fatal(err)
	}
	if run.Results.JobsFinished != 60 {
		t.Fatalf("finished %d", run.Results.JobsFinished)
	}
}

func TestFig5SeriesShape(t *testing.T) {
	cs := smallCase()
	cs.TrainSteps = 4 * 512
	_, hist, err := cs.TrainRL(nil)
	if err != nil {
		t.Fatal(err)
	}
	reward, entropy := Fig5Series(hist)
	if len(reward.X) != len(hist) || len(entropy.X) != len(hist) {
		t.Fatal("series lengths wrong")
	}
	// Initial entropy loss for a fresh 5-dim Gaussian is ≈ −7.09 — the
	// paper's Fig. 5 starting point.
	if entropy.Y[0] > -6.5 || entropy.Y[0] < -7.6 {
		t.Fatalf("initial entropy loss = %g, want ≈ -7.1", entropy.Y[0])
	}
	// Rewards are fidelities: all within (0,1).
	for _, r := range reward.Y {
		if r <= 0 || r >= 1 {
			t.Fatalf("reward %g outside (0,1)", r)
		}
	}
	// Timesteps monotone increasing.
	for i := 1; i < len(reward.X); i++ {
		if reward.X[i] <= reward.X[i-1] {
			t.Fatal("timesteps not increasing")
		}
	}
}

func TestFig6HistogramsCoverAllModes(t *testing.T) {
	cs := smallCase()
	runs, _, err := cs.RunAllParallel(context.Background(), ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hists := Fig6Histograms(runs, 30)
	if len(hists) != 4 {
		t.Fatalf("histograms = %d", len(hists))
	}
	var lo, hi float64
	first := true
	for mode, h := range hists {
		if h.Total != 60 {
			t.Fatalf("%s: binned %d of 60", mode, h.Total)
		}
		if first {
			lo, hi = h.Lo, h.Hi
			first = false
		} else if h.Lo != lo || h.Hi != hi {
			t.Fatal("histograms must share a common range for comparison")
		}
	}
	// The fidelity-mode distribution should sit to the right: its mode
	// exceeds the rl-mode's.
	if hists["fidelity"].Mode() <= hists["rlbase"].Mode() {
		t.Errorf("fidelity mode should be right-shifted: mode %.4f vs rl %.4f",
			hists["fidelity"].Mode(), hists["rlbase"].Mode())
	}
}

func TestFig6EmptyRunsSafeRange(t *testing.T) {
	hists := Fig6Histograms(map[string]*ModeRun{"speed": {Fidelities: nil}}, 10)
	if hists["speed"].Total != 0 {
		t.Fatal("empty run should produce empty histogram")
	}
}

func TestPhiSweepMonotoneForMultiDeviceJobs(t *testing.T) {
	cs := smallCase()
	cs.Workload.N = 25
	points, _, err := cs.PhiSweepParallel(context.Background(), ExecOptions{Workers: 1}, "speed", []float64{0.85, 0.95, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Every job is multi-device (q > 127), so higher φ ⇒ strictly higher
	// mean fidelity.
	for i := 1; i < len(points); i++ {
		if points[i].Results.FidelityMean <= points[i-1].Results.FidelityMean {
			t.Fatalf("fidelity not monotone in φ: %+v", points)
		}
	}
	// Config must be restored after the sweep.
	if cs.Core.Phi != 0.95 {
		t.Fatalf("Phi not restored: %g", cs.Core.Phi)
	}
}

func TestLambdaSweepScalesCommTime(t *testing.T) {
	cs := smallCase()
	cs.Workload.N = 25
	points, _, err := cs.LambdaSweepParallel(context.Background(), ExecOptions{Workers: 1}, "fair", []float64{0.0, 0.02, 0.04})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Results.TotalCommTime != 0 {
		t.Fatalf("λ=0 should zero comm time, got %g", points[0].Results.TotalCommTime)
	}
	if points[2].Results.TotalCommTime <= points[1].Results.TotalCommTime {
		t.Fatal("comm time should grow with λ")
	}
}

func TestSweepValidation(t *testing.T) {
	cs := smallCase()
	if _, _, err := cs.PhiSweepParallel(context.Background(), ExecOptions{Workers: 1}, "speed", nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, _, err := cs.PhiSweepParallel(context.Background(), ExecOptions{Workers: 1}, "bogus", []float64{0.9}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRLDeploymentAblation(t *testing.T) {
	cs := smallCase()
	cs.Workload.N = 30
	sampled, det, _, err := cs.RLDeploymentAblationParallel(context.Background(), ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Results.JobsFinished != 30 || det.Results.JobsFinished != 30 {
		t.Fatal("ablation runs incomplete")
	}
	// Flag restored.
	if cs.RLDeterministic {
		t.Fatal("RLDeterministic not restored")
	}
}

func TestRunReplicatedAggregates(t *testing.T) {
	cs := smallCase()
	cs.Workload.N = 30
	rep, _, err := cs.RunReplicatedParallel(context.Background(), ExecOptions{Workers: 1}, "speed", []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "speed" || len(rep.Seeds) != 3 {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.MuFStat.Min > rep.MuFStat.Mean || rep.MuFStat.Mean > rep.MuFStat.Max {
		t.Fatalf("muF stats inconsistent: %+v", rep.MuFStat)
	}
	if rep.MuFStat.Std < 0 {
		t.Fatal("negative std")
	}
	if rep.TsimStat.Mean <= 0 || rep.TcommStat.Mean <= 0 {
		t.Fatalf("degenerate stats: %+v", rep)
	}
	// Different seeds must actually produce different workloads.
	if rep.TsimStat.Min == rep.TsimStat.Max {
		t.Fatal("replication shows no variation across seeds")
	}
	// Original seed restored.
	if cs.Workload.Seed != 3 && cs.Workload.Seed != smallCase().Workload.Seed {
		t.Fatalf("workload seed not restored: %d", cs.Workload.Seed)
	}
}

func TestRunReplicatedValidation(t *testing.T) {
	cs := smallCase()
	if _, _, err := cs.RunReplicatedParallel(context.Background(), ExecOptions{Workers: 1}, "speed", nil); err == nil {
		t.Fatal("empty seeds accepted")
	}
	if _, _, err := cs.RunReplicatedParallel(context.Background(), ExecOptions{Workers: 1}, "bogus", []int64{1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestDefaultUsesPaperWorkload(t *testing.T) {
	cs := Default()
	if cs.Workload.N != 1000 || cs.Workload.MinQubits != 130 || cs.Workload.MaxQubits != 250 {
		t.Fatalf("default workload deviates from the paper: %+v", cs.Workload)
	}
	if cs.PPO.ClipRange != 0.2 {
		t.Fatal("default PPO should use SB3 defaults")
	}
	jobs, err := cs.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1000 {
		t.Fatalf("jobs = %d", len(jobs))
	}
}
