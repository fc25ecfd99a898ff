package sta_test

import (
	"math"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// referenceBackward is the full-circuit backward pass the cone walk
// replaces: the map-based fan-in cone, then a reverse sweep over the
// whole topological order.
func referenceBackward(tm *sta.Timing, c *netlist.Circuit, target *netlist.Node) []float64 {
	db := make([]float64, len(c.Nodes))
	for i := range db {
		db[i] = math.NaN()
	}
	cone := c.FaninCone(target)
	db[target.ID] = 0
	topo := c.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if !cone[n.ID] || n == target {
			continue
		}
		best := math.Inf(-1)
		for _, f := range n.Fanout {
			if !cone[f.ID] || math.IsNaN(db[f.ID]) {
				continue
			}
			if d := tm.EdgeDelay(n, f) + db[f.ID]; d > best {
				best = d
			}
		}
		if !math.IsInf(best, -1) {
			db[n.ID] = best
		}
	}
	return db
}

// TestConeReuseMatchesReference walks one Cone over every endpoint of a
// benchmark, twice in opposite orders so every walk starts from a
// different previous cone, and checks each walk against the reference
// pass bit for bit: D^b inside the cone, NaN outside, and the cone's
// node list in topological order with the target last.
func TestConeReuseMatchesReference(t *testing.T) {
	p, ok := bench.ProfileByName("s5378")
	if !ok {
		t.Fatal("s5378 profile missing")
	}
	c, _, err := p.Build(cell.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
	var targets []*netlist.Node
	targets = append(targets, c.Outputs...)
	for i := len(c.Outputs) - 1; i >= 0; i-- {
		targets = append(targets, c.Outputs[i])
	}
	// A gate target too: BackwardMap accepts any node.
	targets = append(targets, c.Outputs[0].Fanin[0])

	cn := tm.NewCone()
	pos := make([]int, len(c.Nodes))
	for _, target := range targets {
		cn.Walk(target)
		want := referenceBackward(tm, c, target)
		got := cn.Db()
		cone := c.FaninCone(target)
		for id := range want {
			if math.Float64bits(got[id]) != math.Float64bits(want[id]) &&
				!(math.IsNaN(got[id]) && math.IsNaN(want[id])) {
				t.Fatalf("target %s node %s: D^b %v, reference %v", target.Name, c.Nodes[id].Name, got[id], want[id])
			}
			if math.IsNaN(got[id]) == cone[id] {
				t.Fatalf("target %s node %s: NaN=%v but in cone=%v", target.Name, c.Nodes[id].Name, math.IsNaN(got[id]), cone[id])
			}
		}
		order := cn.Nodes()
		if len(order) != len(cone) || order[len(order)-1] != target {
			t.Fatalf("target %s: %d cone nodes ending at %s, want %d ending at the target",
				target.Name, len(order), order[len(order)-1].Name, len(cone))
		}
		for i, n := range order {
			pos[n.ID] = i
		}
		for i, n := range order {
			for _, f := range n.Fanin {
				if pos[f.ID] >= i {
					t.Fatalf("target %s: fanin %s of %s comes later in the cone order", target.Name, f.Name, n.Name)
				}
			}
		}
	}
}
