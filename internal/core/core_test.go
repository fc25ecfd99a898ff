package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/exact"
	"relatch/internal/fig4"
	"relatch/internal/flow"
	"relatch/internal/lint"
	"relatch/internal/netlist"
	"relatch/internal/rgraph"
	"relatch/internal/sta"
)

func fig4Options(c *netlist.Circuit) Options {
	return Options{
		Scheme:      fig4.Scheme(),
		EDLCost:     fig4.EDLOverhead,
		TimingModel: sta.ModelFixed,
		FixedDelays: fig4.FixedDelays(c),
	}
}

func TestFig4GRAR(t *testing.T) {
	c := fig4.MustCircuit()
	res, err := Retime(c, fig4Options(c), ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlaveCount != 3 {
		t.Errorf("slaves = %d, want 3 (Cut2)", res.SlaveCount)
	}
	if res.EDCount != 0 {
		t.Errorf("ED masters = %d, want 0", res.EDCount)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	if res.MasterCount != 3 {
		t.Errorf("masters = %d, want 3", res.MasterCount)
	}
	// Sequential area in latch units: 3 slaves + 3 masters + 0 ED.
	a := c.Lib.BaseLatch.Area
	if math.Abs(res.SeqArea-6*a) > 1e-9 {
		t.Errorf("seq area = %g, want %g", res.SeqArea, 6*a)
	}
}

func TestFig4Base(t *testing.T) {
	c := fig4.MustCircuit()
	res, err := Retime(c, fig4Options(c), ApproachBase)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlaveCount != 2 {
		t.Errorf("slaves = %d, want 2 (Cut1)", res.SlaveCount)
	}
	if res.EDCount != 1 {
		t.Errorf("ED masters = %d, want 1 (O9)", res.EDCount)
	}
	o9, _ := c.Node("O9")
	if !res.EDMasters[o9.ID] {
		t.Error("O9 must be the error-detecting master")
	}
}

func TestFig4CostGap(t *testing.T) {
	// The paper's headline for the example: Cut1 costs 5 units, Cut2
	// costs 4 (slaves + target master at c = 2). Our accounting adds the
	// two source masters to both sides, preserving the 1-unit gap.
	c := fig4.MustCircuit()
	grar, err := Retime(c, fig4Options(c), ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Retime(c, fig4Options(c), ApproachBase)
	if err != nil {
		t.Fatal(err)
	}
	a := c.Lib.BaseLatch.Area
	gap := (base.SeqArea - grar.SeqArea) / a
	if math.Abs(gap-1) > 1e-9 {
		t.Errorf("seq area gap = %g latch units, want 1 (5 vs 4 in the paper's units)", gap)
	}
}

func TestFig4EvaluateCuts(t *testing.T) {
	c := fig4.MustCircuit()
	opt := fig4Options(c)
	cut1, err := Evaluate(c, opt, fig4.Cut1(c))
	if err != nil {
		t.Fatal(err)
	}
	cut2, err := Evaluate(c, opt, fig4.Cut2(c))
	if err != nil {
		t.Fatal(err)
	}
	if cut1.SlaveCount != 2 || cut1.EDCount != 1 {
		t.Errorf("cut1: slaves=%d ed=%d, want 2/1", cut1.SlaveCount, cut1.EDCount)
	}
	if cut2.SlaveCount != 3 || cut2.EDCount != 0 {
		t.Errorf("cut2: slaves=%d ed=%d, want 3/0", cut2.SlaveCount, cut2.EDCount)
	}
}

func TestEvaluateRejectsIllegalPlacement(t *testing.T) {
	c := fig4.MustCircuit()
	p := netlist.NewPlacement() // no latches anywhere
	if _, err := Evaluate(c, fig4Options(c), p); err == nil {
		t.Error("empty placement accepted")
	}
}

func TestApproachString(t *testing.T) {
	if ApproachGRAR.String() != "g-rar" || ApproachBase.String() != "base" {
		t.Error("approach names wrong")
	}
}

// randomCase builds a random cloud with its scheme and sta options.
func randomCase(t *testing.T, seed int64, gates int) (*netlist.Circuit, Options) {
	t.Helper()
	lib := cell.Default(1.0)
	rng := rand.New(rand.NewSource(seed))
	spec := bench.RandomSpec{
		Inputs:   2 + rng.Intn(3),
		Outputs:  1 + rng.Intn(3),
		Gates:    gates,
		Locality: 3,
	}
	c, err := bench.RandomCloud("rnd", lib, rng, spec)
	if err != nil {
		t.Fatal(err)
	}
	scheme := bench.SchemeFor(c, sta.DefaultOptions(lib))
	return c, Options{Scheme: scheme, EDLCost: 1.0}
}

// TestGRARMatchesExactOracle is the central exactness property: on random
// small circuits the flow-based solve must equal the brute-force optimum
// of the model objective (slaves + c per model-ED master).
func TestGRARMatchesExactOracle(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 80; seed++ {
		c, opt := randomCase(t, seed, 5+int(seed)%10)
		tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
		g, err := rgraph.Build(c, tm, rgraph.Config{
			Scheme:         opt.Scheme,
			Latch:          c.Lib.BaseLatch,
			EDLCost:        opt.EDLCost,
			ResilientAware: true,
		})
		if err != nil {
			continue
		}
		best, err := exact.Search(g)
		if err != nil {
			continue // oracle limit exceeded or no legal retiming
		}
		sol, err := g.SolveCtx(context.Background(), flow.MethodSimplex)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := exact.ModelCost(g, sol.R)
		if math.Abs(got-best.Cost) > 1e-9 {
			t.Errorf("seed %d: flow solve cost %g, brute force %g", seed, got, best.Cost)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d/80 random cases checked against the oracle", checked)
	}
}

// TestBaseNotBelowSlaveOracle: base retiming models the commercial
// minimum-perturbation flow, so its slave count can exceed the true
// minimum — but never undercut it (the oracle is a valid lower bound),
// and its placement must stay legal.
func TestBaseNotBelowSlaveOracle(t *testing.T) {
	checked := 0
	for seed := int64(100); seed < 160; seed++ {
		c, opt := randomCase(t, seed, 5+int(seed)%9)
		tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
		g, err := rgraph.Build(c, tm, rgraph.Config{
			Scheme:         opt.Scheme,
			Latch:          c.Lib.BaseLatch,
			EDLCost:        opt.EDLCost,
			ResilientAware: false,
		})
		if err != nil {
			continue
		}
		best, err := exact.SearchSlaves(g)
		if err != nil {
			continue
		}
		sol, err := g.SolveCtx(context.Background(), flow.MethodSimplex)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := float64(sol.Placement.SlaveCount()); got < best.Cost-1e-9 {
			t.Errorf("seed %d: base slaves %g below the brute-force minimum %g", seed, got, best.Cost)
		}
		if err := sol.Placement.Validate(c); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d/60 random cases checked", checked)
	}
}

// TestGRARNeverWorseThanBase asserts the paper's empirical claim on a
// random corpus: the resilient-aware solve never loses to base retiming
// on the model objective, and wins on ground-truth sequential area in
// aggregate.
func TestGRARNeverWorseThanBase(t *testing.T) {
	var grarArea, baseArea float64
	runs := 0
	for seed := int64(200); seed < 240; seed++ {
		c, opt := randomCase(t, seed, 12+int(seed)%25)
		opt.EDLCost = []float64{0.5, 1, 2}[seed%3]
		grar, err := Retime(c, opt, ApproachGRAR)
		if err != nil {
			continue
		}
		base, err := Retime(c, opt, ApproachBase)
		if err != nil {
			continue
		}
		if err := grar.Placement.Validate(c); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(grar.Violations) != 0 {
			t.Errorf("seed %d: G-RAR timing violations %v", seed, grar.Violations)
		}
		grarArea += grar.SeqArea
		baseArea += base.SeqArea
		runs++
	}
	if runs < 30 {
		t.Fatalf("only %d/40 corpus runs completed", runs)
	}
	if grarArea > baseArea*1.0001 {
		t.Errorf("G-RAR aggregate sequential area %g exceeds base %g", grarArea, baseArea)
	}
}

func TestSeqAreaOf(t *testing.T) {
	lib := cell.Default(2.0)
	got := SeqAreaOf(lib, 2.0, 3, 3, 1)
	want := lib.BaseLatch.Area * (6 + 2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("SeqAreaOf = %g, want %g", got, want)
	}
}

// TestRetimePreflightLint pins the pre-flight gate: a corrupted circuit
// is rejected with positioned lint findings before any solve runs.
func TestRetimePreflightLint(t *testing.T) {
	c := fig4.MustCircuit()
	// Chop a gate's fanin so the width-mismatch rule fires.
	var gate *netlist.Node
	for _, n := range c.Nodes {
		if n.Kind == netlist.KindGate && len(n.Fanin) > 1 {
			gate = n
			break
		}
	}
	if gate == nil {
		t.Fatal("fig4 has no multi-input gate")
	}
	gate.Fanin = gate.Fanin[:1]
	_, err := Retime(c, fig4Options(c), ApproachGRAR)
	if !errors.Is(err, lint.ErrFindings) {
		t.Fatalf("Retime on a corrupted circuit = %v, want lint.ErrFindings", err)
	}
	if !strings.Contains(err.Error(), "width-mismatch") {
		t.Errorf("error does not name the rule: %v", err)
	}
}
