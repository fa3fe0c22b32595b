package sim

import (
	"testing"
	"testing/quick"
)

func TestContainerImmediateGet(t *testing.T) {
	env := NewEnvironment()
	c := env.NewContainer(127, 127)
	if !c.TryGet(50) {
		t.Fatal("TryGet(50) refused on a full container")
	}
	if c.Level() != 77 {
		t.Fatalf("level = %g, want 77 (withdrawal is immediate)", c.Level())
	}
	if c.TryGet(78) {
		t.Fatal("TryGet(78) granted with 77 available")
	}
	if c.Level() != 77 {
		t.Fatalf("level = %g after a refused TryGet, want 77", c.Level())
	}
}

func TestContainerPutBlocksWhenFull(t *testing.T) {
	env := NewEnvironment()
	c := env.NewContainer(50, 40)
	if c.TryPut(20) { // 40+20 > 50
		t.Fatal("TryPut(20) accepted over capacity")
	}
	if c.Level() != 40 {
		t.Fatalf("level = %g after a refused TryPut, want 40", c.Level())
	}
	if !c.TryGet(15) || !c.TryPut(20) {
		t.Fatal("TryPut(20) refused after TryGet(15) made room")
	}
	if c.Level() != 45 {
		t.Fatalf("level = %g, want 45", c.Level())
	}
}

func TestContainerInUse(t *testing.T) {
	env := NewEnvironment()
	c := env.NewContainer(127, 127)
	c.TryGet(100)
	if c.InUse() != 100 {
		t.Fatalf("InUse = %g, want 100", c.InUse())
	}
}

func TestContainerInvalidArgsPanic(t *testing.T) {
	env := NewEnvironment()
	cases := []func(){
		func() { env.NewContainer(0, 0) },
		func() { env.NewContainer(10, -1) },
		func() { env.NewContainer(10, 11) },
		func() { env.NewContainer(10, 5).TryGet(-1) },
		func() { env.NewContainer(10, 5).TryPut(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: conservation — after any sequence of matched get/put pairs
// completes, level + outstanding == capacity.
func TestPropertyContainerConservation(t *testing.T) {
	f := func(amounts []uint8) bool {
		env := NewEnvironment()
		cap := 255.0
		c := env.NewContainer(cap, cap)
		outstanding := 0.0
		ok := true
		for i, a := range amounts {
			amt := float64(a%100) + 1
			env.AfterFunc(float64(2*i), func() {
				ok = ok && c.TryGet(amt)
				outstanding += amt
			})
			env.AfterFunc(float64(2*i+1), func() {
				ok = ok && c.TryPut(amt)
				outstanding -= amt
			})
		}
		env.Run()
		return ok && c.Level() == cap && outstanding == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with concurrent workers each taking then returning qubits,
// retrying a step later when too few are free, the container never goes
// negative, every worker is served, and it ends full.
func TestPropertyContainerConcurrentWorkers(t *testing.T) {
	f := func(seeds []uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		env := NewEnvironment()
		c := env.NewContainer(127, 127)
		negative := false
		served := 0
		for _, s := range seeds {
			amt := float64(s%127) + 1
			hold := float64(s%7) + 1
			var try func()
			try = func() {
				if !c.TryGet(amt) {
					env.AfterFunc(1, try)
					return
				}
				served++
				if c.Level() < 0 {
					negative = true
				}
				env.AfterFunc(hold, func() { c.TryPut(amt) })
			}
			env.AfterFunc(0, try)
		}
		env.Run()
		return !negative && served == len(seeds) && c.Level() == 127
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
