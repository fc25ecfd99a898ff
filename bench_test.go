package relatch

import (
	"context"
	"math/rand"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/core"
	"relatch/internal/experiments"
	"relatch/internal/flow"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/rgraph"
	"relatch/internal/sim"
	"relatch/internal/sta"
	"relatch/internal/vlib"
)

// benchSuite runs the experiment pipeline for the given table on a small
// benchmark subset (the full sweep is cmd/paper; these benches track the
// cost of regenerating each table's data).
func benchSuite(b *testing.B, cfg experiments.Config, render func(*experiments.Suite) string) {
	b.Helper()
	if cfg.Profiles == nil {
		cfg.Profiles = []string{"s1196", "s1488"}
	}
	if cfg.Overheads == nil {
		cfg.Overheads = []float64{1.0}
	}
	if cfg.SimCycles == 0 {
		cfg.SimCycles = 200
	}
	if cfg.MovableTrials == 0 {
		cfg.MovableTrials = 6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := experiments.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if render(s) == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableI regenerates the circuit-information table.
func BenchmarkTableI(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableI().String() })
}

// BenchmarkTableII regenerates the gate-vs-path delay model comparison.
func BenchmarkTableII(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableII().String() })
}

// BenchmarkTableIII regenerates the virtual-library variant comparison.
func BenchmarkTableIII(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableIII().String() })
}

// BenchmarkTableIV regenerates the sequential-area comparison.
func BenchmarkTableIV(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableIV().String() })
}

// BenchmarkTableV regenerates the total-area comparison.
func BenchmarkTableV(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableV().String() })
}

// BenchmarkTableVI regenerates the latch-count comparison.
func BenchmarkTableVI(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableVI().String() })
}

// BenchmarkTableVII regenerates the run-time comparison.
func BenchmarkTableVII(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableVII().String() })
}

// BenchmarkTableVIII regenerates the error-rate comparison.
func BenchmarkTableVIII(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableVIII().String() })
}

// BenchmarkTableIX regenerates the fixed- vs movable-master comparison.
func BenchmarkTableIX(b *testing.B) {
	benchSuite(b, experiments.Config{}, func(s *experiments.Suite) string { return s.TableIX().String() })
}

// --- component micro-benchmarks ---

func mediumCircuit(b *testing.B) (*netlist.Circuit, core.Options) {
	b.Helper()
	lib := cell.Default(1.0)
	prof, _ := bench.ProfileByName("s5378")
	c, scheme, err := prof.Build(lib)
	if err != nil {
		b.Fatal(err)
	}
	return c, core.Options{Scheme: scheme, EDLCost: 1}
}

// BenchmarkGRARSimplex times a full G-RAR solve (network simplex) on a
// medium benchmark.
func BenchmarkGRARSimplex(b *testing.B) {
	c, opt := mediumCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Retime(c, opt, core.ApproachGRAR); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGRARSSP times the same solve through successive shortest
// paths.
func BenchmarkGRARSSP(b *testing.B) {
	c, opt := mediumCircuit(b)
	opt.Method = flow.MethodSSP
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Retime(c, opt, core.ApproachGRAR); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetimeUntraced is the no-tracer baseline of the
// instrumentation-overhead pair: the context carries no obs.Tracer, so
// every StartSpan takes the nil fast path. Compare against
// BenchmarkRetimeTraced; the disabled-path delta is budgeted < 2%.
func BenchmarkRetimeUntraced(b *testing.B) {
	c, opt := mediumCircuit(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RetimeCtx(ctx, c, opt, core.ApproachGRAR); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetimeTraced runs the same solve with a live tracer: every
// span, counter and gauge is recorded (a fresh tracer per iteration, as
// the CLI does per run).
func BenchmarkRetimeTraced(b *testing.B) {
	c, opt := mediumCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.New("bench")
		ctx := obs.WithTracer(context.Background(), tr)
		if _, err := core.RetimeCtx(ctx, c, opt, core.ApproachGRAR); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// BenchmarkBaseRetiming times resiliency-unaware min-area retiming.
func BenchmarkBaseRetiming(b *testing.B) {
	c, opt := mediumCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Retime(c, opt, core.ApproachBase); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRVL times the best virtual-library flow.
func BenchmarkRVL(b *testing.B) {
	c, opt := mediumCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := vlib.Retime(c, vlib.Options{Scheme: opt.Scheme, EDLCost: 1, PostSwap: true}, vlib.RVL)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRGraphBuildPlasma times the G-RAR retiming-graph build on
// Plasma, the largest benchmark: regions, endpoint classes, one cut set
// g(t) per target over its fan-in cone, and the LP. It reports the
// target count and the summed cone size the cut-set pass walked.
func BenchmarkRGraphBuildPlasma(b *testing.B) {
	prof, _ := bench.ProfileByName("Plasma")
	c, scheme, err := prof.Build(cell.Default(1.0))
	if err != nil {
		b.Fatal(err)
	}
	tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
	cfg := rgraph.Config{Scheme: scheme, Latch: c.Lib.BaseLatch, EDLCost: 1, ResilientAware: true}
	var g *rgraph.Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g, err = rgraph.Build(c, tm, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumTargets()), "targets")
	b.ReportMetric(float64(g.NumConeNodes()), "cone_nodes")
}

// BenchmarkSTA times a full path-based timing analysis.
func BenchmarkSTA(b *testing.B) {
	c, _ := mediumCircuit(b)
	opt := sta.DefaultOptions(c.Lib)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sta.Analyze(c, opt)
	}
}

// BenchmarkTimedSimulation times the error-rate simulator.
func BenchmarkTimedSimulation(b *testing.B) {
	c, opt := mediumCircuit(b)
	tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
	res, err := core.Retime(c, opt, core.ApproachGRAR)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{Scheme: opt.Scheme, Latch: c.Lib.BaseLatch, Cycles: 100, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ErrorRate(tm, res.Placement, res.EDMasters, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetworkSimplexRandom times the raw solver on random min-cost
// flow instances.
func BenchmarkNetworkSimplexRandom(b *testing.B) {
	benchFlowSolver(b, func(nw *flow.Network) error {
		_, err := nw.SolveSimplex()
		return err
	})
}

// BenchmarkSSPRandom times the successive-shortest-path solver on the
// same instances.
func BenchmarkSSPRandom(b *testing.B) {
	benchFlowSolver(b, func(nw *flow.Network) error {
		_, err := nw.SolveSSP()
		return err
	})
}

func benchFlowSolver(b *testing.B, solve func(*flow.Network) error) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	const n = 400
	nw := flow.NewNetwork(n)
	bal := make([]int64, n)
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		capv := int64(1 + rng.Intn(50))
		if _, err := nw.AddArc(u, v, int64(rng.Intn(20)), capv); err != nil {
			b.Fatal(err)
		}
		f := int64(rng.Intn(int(capv)))
		bal[v] += f
		bal[u] -= f
	}
	for v, d := range bal {
		nw.SetDemand(v, d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solve(nw); err != nil {
			b.Fatal(err)
		}
	}
}
