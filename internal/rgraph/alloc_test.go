package rgraph

import (
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/sta"
)

// TestBuildAllocs gates the allocation count of a full graph build on a
// large benchmark. The cut-set pass walks each target's fan-in cone in
// one reused scratch and allocates only the returned g(t) slice, so the
// build's count is a fixed setup plus one slice per non-empty cut. A
// per-target allocation (a fresh backward map, a cone map) creeping
// back would trip the gate on s38584's 623 targets; fix such a
// regression, don't raise the ceiling to accommodate it.
func TestBuildAllocs(t *testing.T) {
	p, ok := bench.ProfileByName("s38584")
	if !ok {
		t.Fatal("s38584 profile missing")
	}
	c, scheme, err := p.Build(cell.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
	cfg := Config{Scheme: scheme, Latch: c.Lib.BaseLatch, EDLCost: 1, ResilientAware: true}
	var g *Graph
	avg := testing.AllocsPerRun(3, func() {
		if g, err = Build(c, tm, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if g.NumTargets() != 623 {
		t.Fatalf("s38584 G-RAR has %d targets, want 623", g.NumTargets())
	}
	// Measured 1048 (go1.24, linux/amd64): 311 of them are the
	// non-empty g(t) slices, the rest the region maps, the latched
	// timing snapshots and the LP. One more allocation per target would
	// add 623.
	const ceiling = 1300
	if avg > ceiling {
		t.Errorf("Build: %.0f allocs per build, gate is %d — a per-target allocation has crept into the cut-set pass", avg, ceiling)
	}
}
