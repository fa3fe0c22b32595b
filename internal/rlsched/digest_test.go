package rlsched

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/rl"
)

// trainedPolicyDigest is the SHA-256 of the SavePolicy JSON written by
// TestTrainedPolicyDigest. It was recorded before the batched nn
// kernels were register-blocked, so it pins trained weights to the
// per-row kernels' arithmetic, not to a reference built from the same
// code as the kernels under test.
const trainedPolicyDigest = "a33e7ee42f325f9c413e9627ed040a92aeb8c91f2632d95696d7d59a3873dd9e"

// TestTrainedPolicyDigest trains a short run at the production shapes
// (actor 16-64-64-5, critic 16-64-64-1, minibatch 64) and pins the
// SHA-256 of the saved policy. NSteps 200 = 3×64 + 8 leaves a tail
// minibatch, and two Learn iterations carry Adam state across updates.
// Any change to the arithmetic of the forward pass, the gradients or
// the optimizer changes the digest.
func TestTrainedPolicyDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other ports may fuse x*y+z into one rounding, which changes
		// the low bits of every trained weight.
		t.Skipf("digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	cfg := rl.DefaultPPOConfig()
	cfg.NSteps = 200
	cfg.NEpochs = 2
	pol, history, err := Train(fleetInfo(t), DefaultGymConfig(), cfg, 2*cfg.NSteps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Fatalf("%d training iterations, want 2", len(history))
	}
	if got, want := pol.Actor.Sizes, []int{StateDim, 64, 64, NumDevices}; !reflect.DeepEqual(got, want) {
		t.Fatalf("actor sizes %v, want %v", got, want)
	}
	if got, want := pol.Critic.Sizes, []int{StateDim, 64, 64, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("critic sizes %v, want %v", got, want)
	}
	path := filepath.Join(t.TempDir(), "policy.json")
	if err := SavePolicy(path, pol); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != trainedPolicyDigest {
		t.Fatalf("trained policy digest %s, want %s", got, trainedPolicyDigest)
	}
}
