// Package sim implements a deterministic discrete-event simulation (DES)
// kernel: a clock and a queue of timer callbacks.
//
// The kernel provides:
//
//   - Environment: the event loop. AfterFunc schedules a callback at
//     now+delay; callbacks fire in (time, scheduling order), so
//     simulations are fully deterministic. Run drains the queue;
//     AdvanceTo and StepWithin let a long-running broker map external
//     (wall or scaled) time onto the simulation.
//   - Container: a divisible resource pool with synchronous TryGet and
//     TryPut, mirroring the level of a simpy.Container.
//
// A minimal simulation:
//
//	env := sim.NewEnvironment()
//	env.AfterFunc(10, func() {
//	    fmt.Println("woke at", env.Now())
//	})
//	env.Run()
//
// The quantum-cloud layers use Container for each device's qubit pool
// (internal/device) and chains of AfterFunc callbacks for job lifecycles
// (internal/core's Broker).
package sim
