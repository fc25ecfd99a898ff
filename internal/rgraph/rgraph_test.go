package rgraph

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/fig4"
	"relatch/internal/flow"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

func fig4Graph(t *testing.T, aware bool) (*netlist.Circuit, *Graph) {
	t.Helper()
	c := fig4.MustCircuit()
	tm := sta.Analyze(c, sta.Options{
		Model:       sta.ModelFixed,
		FixedDelays: fig4.FixedDelays(c),
	})
	g, err := Build(c, tm, Config{
		Scheme:         fig4.Scheme(),
		Latch:          fig4.ZeroLatch(),
		EDLCost:        fig4.EDLOverhead,
		ResilientAware: aware,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func idsToNames(c *netlist.Circuit, ids map[int]bool) []string {
	var out []string
	for id := range ids {
		out = append(out, c.Nodes[id].Name)
	}
	sort.Strings(out)
	return out
}

func TestFig4Regions(t *testing.T) {
	c, g := fig4Graph(t, true)
	// Section IV-B: V_m = {I1}, V_n = {G7, G8, O9}, V_r = {I2,G3,G4,G5,G6}.
	if got := idsToNames(c, g.Vm); len(got) != 1 || got[0] != "I1" {
		t.Errorf("V_m = %v, want [I1]", got)
	}
	wantVn := []string{"G7", "G8", "O9"}
	gotVn := idsToNames(c, g.Vn)
	if len(gotVn) != len(wantVn) {
		t.Fatalf("V_n = %v, want %v", gotVn, wantVn)
	}
	for i := range wantVn {
		if gotVn[i] != wantVn[i] {
			t.Fatalf("V_n = %v, want %v", gotVn, wantVn)
		}
	}
	wantVr := []string{"G3", "G4", "G5", "G6", "I2"}
	gotVr := idsToNames(c, g.Vr)
	if len(gotVr) != len(wantVr) {
		t.Fatalf("V_r = %v, want %v", gotVr, wantVr)
	}
	for i := range wantVr {
		if gotVr[i] != wantVr[i] {
			t.Fatalf("V_r = %v, want %v", gotVr, wantVr)
		}
	}
}

func TestFig4Classification(t *testing.T) {
	c, g := fig4Graph(t, true)
	o9, _ := c.Node("O9")
	if got := g.Class[o9.ID]; got != Target {
		t.Fatalf("O9 class = %v, want target", got)
	}
	// g(O9) = {G5, G6} (Section IV-A).
	var names []string
	for _, id := range g.GT[o9.ID] {
		names = append(names, c.Nodes[id].Name)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "G5" || names[1] != "G6" {
		t.Errorf("g(O9) = %v, want [G5 G6]", names)
	}
}

func TestFig4GRARSolve(t *testing.T) {
	c, g := fig4Graph(t, true)
	for _, m := range []flow.Method{flow.MethodSimplex, flow.MethodSSP} {
		sol, err := g.SolveCtx(context.Background(), m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		// The paper's ILP solution: r = −1 on I1, I2, G3..G6.
		want := fig4.MustOptimalRetiming(c)
		for _, n := range c.Nodes {
			if sol.R[n.ID] != want[n.ID] {
				t.Errorf("%v: r(%s) = %d, want %d", m, n.Name, sol.R[n.ID], want[n.ID])
			}
		}
		// Cut2: three physical slaves at G4, G5, G6.
		if got := sol.Placement.SlaveCount(); got != 3 {
			t.Errorf("%v: slaves = %d, want 3", m, got)
		}
		o9, _ := c.Node("O9")
		if !sol.PseudoFired[o9.ID] {
			t.Errorf("%v: P(O9) did not fire; model keeps O9 error-detecting", m)
		}
		wantCut := fig4.Cut2(c)
		for e := range wantCut.OnEdge {
			if !sol.Placement.OnEdge[e] {
				t.Errorf("%v: expected latch on %v", m, e)
			}
		}
	}
}

func TestFig4BaseSolve(t *testing.T) {
	_, g := fig4Graph(t, false)
	sol, err := g.SolveCtx(context.Background(), flow.MethodSimplex)
	if err != nil {
		t.Fatal(err)
	}
	// Resiliency-unaware min-area retiming finds the 2-latch cut (Cut1).
	if got := sol.Placement.SlaveCount(); got != 2 {
		t.Errorf("base slaves = %d, want 2", got)
	}
	if len(sol.PseudoFired) != 0 {
		t.Errorf("base retiming must not carry pseudo nodes")
	}
}

func TestFig4ObjectiveGap(t *testing.T) {
	// G-RAR's model objective must beat base's by 1 latch unit:
	// Cut2 = 3 slaves + 0·c vs Cut1 = 2 slaves + 1·c with c = 2.
	_, gA := fig4Graph(t, true)
	solA, err := gA.SolveCtx(context.Background(), flow.MethodSimplex)
	if err != nil {
		t.Fatal(err)
	}
	_, gB := fig4Graph(t, false)
	solB, err := gB.SolveCtx(context.Background(), flow.MethodSimplex)
	if err != nil {
		t.Fatal(err)
	}
	// Same constant offsets, so compare model costs via exact scoring.
	costA := solA.Objective
	costB := solB.Objective
	// The aware objective includes the −c reward; the unaware one does
	// not, so compare reconstructed totals: slaves + c·(unreclaimed).
	totalA := float64(solA.Placement.SlaveCount())
	for id, fired := range solA.PseudoFired {
		_ = id
		if !fired {
			totalA += fig4.EDLOverhead
		}
	}
	totalB := float64(solB.Placement.SlaveCount()) + fig4.EDLOverhead // O9 stays ED
	if totalA != 3 || totalB != 4 {
		t.Errorf("model totals: aware %g (want 3), base %g (want 4)", totalA, totalB)
	}
	_ = costA
	_ = costB
}

func TestGraphCounts(t *testing.T) {
	_, g := fig4Graph(t, true)
	// Variables: 9 nodes + 2 mirrors (G3, I2) + 1 pseudo + host = 13.
	if got := g.NumVariables(); got != 13 {
		t.Errorf("variables = %d, want 13", got)
	}
	if g.NumConstraints() == 0 {
		t.Error("no constraints built")
	}
}

func TestInfeasibleStageRejected(t *testing.T) {
	// One gate with delay 9 out of 12.5 budget: its input side violates
	// the backward limit and its output side the forward limit.
	lib := cell.Default(1)
	b := netlist.NewBuilder("tight", lib)
	in := b.Input("i", 0)
	g1 := b.Gate("g1", lib.MustCell(cell.FuncBuf, 1), in)
	g2 := b.Gate("g2", lib.MustCell(cell.FuncBuf, 1), g1)
	b.Output("o", 1, g2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tm := sta.Analyze(c, sta.Options{
		Model:       sta.ModelFixed,
		FixedDelays: map[int]float64{g1.ID: 9, g2.ID: 3},
	})
	g, err := Build(c, tm, Config{
		Scheme:  fig4.Scheme(), // limits 7.5/7.5, P = 12.5
		Latch:   fig4.ZeroLatch(),
		EDLCost: 1,
	})
	if err != nil {
		return // rejected at region construction: also acceptable
	}
	if _, err := g.SolveCtx(context.Background(), flow.MethodSimplex); err == nil {
		t.Fatal("expected an infeasibility error: no legal latch position exists")
	}
}

func TestNodeRegionConflictRejectedAtBuild(t *testing.T) {
	// A single gate with delay 9 both exceeds the forward limit at its
	// output and the backward limit at its input side when it also has
	// downstream delay: D^f(g1) = 8 > 7.5 and D^b(g1) includes 8 more.
	lib := cell.Default(1)
	b := netlist.NewBuilder("conflict", lib)
	in := b.Input("i", 0)
	g1 := b.Gate("g1", lib.MustCell(cell.FuncBuf, 1), in)
	g2 := b.Gate("g2", lib.MustCell(cell.FuncBuf, 1), g1)
	b.Output("o", 1, g2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tm := sta.Analyze(c, sta.Options{
		Model:       sta.ModelFixed,
		FixedDelays: map[int]float64{g1.ID: 8, g2.ID: 8},
	})
	if _, err := Build(c, tm, Config{
		Scheme:  fig4.Scheme(),
		Latch:   fig4.ZeroLatch(),
		EDLCost: 1,
	}); err == nil {
		t.Fatal("expected region conflict at build: g1 violates both limits")
	}
}

func TestClassStrings(t *testing.T) {
	if NeverED.String() != "never-ed" || AlwaysED.String() != "always-ed" || Target.String() != "target" {
		t.Error("class names wrong")
	}
}

// TestRandomCloudsSolvable exercises graph construction and solving on a
// corpus of random clouds with both methods, asserting legality and
// method agreement on the objective.
func TestRandomCloudsSolvable(t *testing.T) {
	lib := cell.Default(1.0)
	rng := rand.New(rand.NewSource(42))
	solved := 0
	for trial := 0; trial < 60; trial++ {
		spec := bench.RandomSpec{
			Inputs:   2 + rng.Intn(4),
			Outputs:  1 + rng.Intn(3),
			Gates:    5 + rng.Intn(18),
			Locality: 3,
		}
		c, err := bench.RandomCloud("rnd", lib, rand.New(rand.NewSource(int64(trial))), spec)
		if err != nil {
			t.Fatal(err)
		}
		opt := sta.DefaultOptions(lib)
		scheme := bench.SchemeFor(c, opt)
		tm := sta.Analyze(c, opt)
		g, err := Build(c, tm, Config{
			Scheme:         scheme,
			Latch:          lib.BaseLatch,
			EDLCost:        1.0,
			ResilientAware: true,
		})
		if err != nil {
			continue // rare tight stage; skip
		}
		simplex, err := g.SolveCtx(context.Background(), flow.MethodSimplex)
		if err != nil {
			t.Fatalf("trial %d simplex: %v", trial, err)
		}
		ssp, err := g.SolveCtx(context.Background(), flow.MethodSSP)
		if err != nil {
			t.Fatalf("trial %d ssp: %v", trial, err)
		}
		if simplex.Objective != ssp.Objective {
			t.Fatalf("trial %d: objective simplex %g vs ssp %g", trial, simplex.Objective, ssp.Objective)
		}
		if err := simplex.Placement.Validate(c); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		solved++
	}
	if solved < 50 {
		t.Errorf("only %d/60 random clouds solvable; generator or regions too tight", solved)
	}
}
