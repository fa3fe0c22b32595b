package repro

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/sim"
)

// deviceFleet builds the standard five-device cloud for benches.
func deviceFleet(env *sim.Environment) ([]*device.Device, error) {
	return device.StandardFleet(env, 2025)
}

// newCoreEnv assembles a default-config simulation for benches.
func newCoreEnv(env *sim.Environment, fleet []*device.Device, pol policy.Policy) (*core.QCloudSimEnv, error) {
	return core.NewQCloudSimEnv(env, fleet, pol, core.DefaultConfig())
}

// coreDefaultConfig exposes the default model constants to benches.
func coreDefaultConfig() core.Config { return core.DefaultConfig() }

// coreNewEnv assembles a simulation with an explicit configuration.
func coreNewEnv(env *sim.Environment, fleet []*device.Device, pol policy.Policy, cfg core.Config) (*core.QCloudSimEnv, error) {
	return core.NewQCloudSimEnv(env, fleet, pol, cfg)
}

// discardRecorder drops every broker lifecycle event, so broker benches
// time dispatch rather than record keeping.
type discardRecorder struct{}

func (discardRecorder) Arrival(*job.QJob, float64)                         {}
func (discardRecorder) Start(string, float64)                              {}
func (discardRecorder) Finish(string, float64, float64, float64, []string) {}
func (discardRecorder) Drop(*job.QJob, float64, string)                    {}

// newBenchBroker assembles a default-config streaming broker over the
// standard fleet with a discarding recorder.
func newBenchBroker(env *sim.Environment, pol policy.Policy) (*core.Broker, error) {
	fleet, err := deviceFleet(env)
	if err != nil {
		return nil, err
	}
	return core.NewBroker(env, fleet, pol, core.DefaultConfig(), discardRecorder{}, 16)
}
