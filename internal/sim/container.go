package sim

import "fmt"

// Container models a homogeneous, divisible resource pool such as the
// free qubits of a quantum device (the paper's device.container.level).
// Withdrawals and deposits are synchronous: TryGet and TryPut either
// happen at once or report that they cannot.
type Container struct {
	capacity float64
	level    float64
}

// NewContainer creates a container with the given capacity and initial
// level. It panics on invalid arguments.
func (env *Environment) NewContainer(capacity, initial float64) *Container {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: container capacity must be positive, got %g", capacity))
	}
	if initial < 0 || initial > capacity {
		panic(fmt.Sprintf("sim: container initial level %g outside [0,%g]", initial, capacity))
	}
	return &Container{capacity: capacity, level: initial}
}

// Capacity returns the container's maximum level.
func (c *Container) Capacity() float64 { return c.capacity }

// Level returns the currently available amount.
func (c *Container) Level() float64 { return c.level }

// InUse returns capacity minus level: the amount currently withdrawn.
func (c *Container) InUse() float64 { return c.capacity - c.level }

// TryGet withdraws amount units if that many are available and reports
// whether the withdrawal happened.
func (c *Container) TryGet(amount float64) bool {
	if amount < 0 {
		panic(fmt.Sprintf("sim: Container.TryGet negative amount %g", amount))
	}
	if amount > c.level {
		return false
	}
	c.level -= amount
	return true
}

// TryPut deposits amount units if the deposit fits under the capacity
// and reports whether it happened.
func (c *Container) TryPut(amount float64) bool {
	if amount < 0 {
		panic(fmt.Sprintf("sim: Container.TryPut negative amount %g", amount))
	}
	if c.level+amount > c.capacity {
		return false
	}
	c.level += amount
	return true
}
