package core

import (
	"context"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/fig4"
	"relatch/internal/flow"
	"relatch/internal/obs"
)

// TestRetimeTraceTree runs a traced retiming end to end and asserts the
// span tree covers every pipeline stage with its counters.
func TestRetimeTraceTree(t *testing.T) {
	lib := cell.Default(1.0)
	prof, ok := bench.ProfileByName("s1196")
	if !ok {
		t.Fatal("s1196 profile missing")
	}
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New("test")
	ctx := obs.WithTracer(context.Background(), tr)
	res, err := RetimeCtx(ctx, c, Options{Scheme: scheme, EDLCost: 1.0}, ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced run did not attach Result.Trace")
	}
	tr.Finish()
	r := res.Trace

	for _, name := range []string{
		"core.retime", "lint.run", "sta.analyze", "rgraph.build",
		"rgraph.solve", "flow.difflp", "flow.solve", "flow.simplex",
		"placement.apply", "core.evaluate", "cert.run",
	} {
		if len(r.Spans(name)) == 0 {
			t.Errorf("span %q missing from trace", name)
		}
	}
	if got := r.Sum("flow.simplex", "pivots"); got <= 0 {
		t.Errorf("pivots = %d, want > 0", got)
	}
	// The build span explains its own cost: how many cut sets it
	// computed and how many cone nodes that walked in total.
	builds := r.Spans("rgraph.build")
	if len(builds) == 1 {
		targets, okT := builds[0].GaugeValue("targets")
		cone, okC := builds[0].GaugeValue("cone_nodes")
		switch {
		case !okT || !okC:
			t.Errorf("rgraph.build gauges targets=%v cone_nodes=%v, want both present", okT, okC)
		case targets <= 0 || cone <= 0:
			t.Errorf("rgraph.build targets=%d cone_nodes=%d, want both > 0 on s1196", targets, cone)
		case cone > targets*int64(len(c.Nodes)):
			t.Errorf("cone_nodes %d > targets %d × %d nodes", cone, targets, len(c.Nodes))
		}
	} else {
		t.Errorf("%d rgraph.build spans, want 1", len(builds))
	}
	if got := r.Sum("lint.run", "rules_run"); got <= 0 {
		t.Errorf("lint rules_run = %d, want > 0", got)
	}
	if got := r.Sum("cert.run", "checks_run"); got <= 0 {
		t.Errorf("cert checks_run = %d, want > 0", got)
	}
	if res.SolverFallback {
		t.Error("unexpected fallback with the default pivot budget")
	}
	if len(r.Spans("flow.ssp")) != 0 {
		t.Error("flow.ssp span present without a fallback")
	}
}

// TestRetimeTraceFallback drives the simplex→SSP fallback through the
// full retiming stack via Options.PivotLimit and asserts the trace and
// the Result agree on what happened.
func TestRetimeTraceFallback(t *testing.T) {
	lib := cell.Default(1.0)
	prof, ok := bench.ProfileByName("s1196")
	if !ok {
		t.Fatal("s1196 profile missing")
	}
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New("test")
	ctx := obs.WithTracer(context.Background(), tr)
	opt := Options{Scheme: scheme, EDLCost: 1.0, PivotLimit: 1}
	res, err := RetimeCtx(ctx, c, opt, ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	r := res.Trace

	if !res.SolverFallback || res.Solver != flow.MethodSSP {
		t.Fatalf("solver = %v fallback = %v, want SSP fallback", res.Solver, res.SolverFallback)
	}
	if got := r.Sum("flow.simplex", "pivots"); got <= 0 {
		t.Errorf("pivots = %d, want > 0 (the failed attempt still counts)", got)
	}
	if got := r.Sum("flow.ssp", "augmenting_paths"); got <= 0 {
		t.Errorf("augmenting_paths = %d, want > 0", got)
	}
	if got := r.Sum("flow.solve", "fallbacks"); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	solves := r.Spans("flow.solve")
	if len(solves) == 0 {
		t.Fatal("flow.solve span missing")
	}
	if reason := solves[0].AttrValue("fallback_reason"); reason != res.FallbackReason {
		t.Errorf("trace reason %q != result reason %q", reason, res.FallbackReason)
	}
}

// TestRetimeUntracedHasNilTrace pins the zero-cost contract: without a
// tracer, Result.Trace stays nil and nothing is recorded.
func TestRetimeUntracedHasNilTrace(t *testing.T) {
	c := fig4.MustCircuit()
	res, err := Retime(c, fig4Options(c), ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("untraced run attached a trace: %+v", res.Trace)
	}
}

// TestReclaimTracesUnderCaller pins that ReclaimBySizing threads its
// context: the re-evaluation's core.evaluate and sta.analyze spans land
// in the caller's tracer, not in a detached background context.
func TestReclaimTracesUnderCaller(t *testing.T) {
	lib := cell.Default(1.0)
	prof, ok := bench.ProfileByName("s1196")
	if !ok {
		t.Fatal("s1196 profile missing")
	}
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Retime(c, Options{Scheme: scheme, EDLCost: 1.0}, ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.New("test")
	if _, _, err := ReclaimBySizing(obs.WithTracer(context.Background(), tr), res, 0); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	r := tr.Report()
	for _, name := range []string{"core.evaluate", "sta.analyze"} {
		if len(r.Spans(name)) == 0 {
			t.Errorf("span %q missing from the caller's trace", name)
		}
	}
}
