package flow

import (
	"context"
	"math/rand"
	"testing"

	"relatch/internal/obs"
)

// TestFallbackTraceRecordsBothSolvers forces the simplex→SSP fallback
// under a tracer and asserts the trace shows the whole story: the failed
// simplex attempt with its pivot counter, the SSP rescue with its
// augmenting-path counter, and the fallback event on flow.solve — all
// consistent with the returned Report.
func TestFallbackTraceRecordsBothSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := randomFeasible(t, rng, 12)
	nw.SetPivotLimit(1)

	tr := obs.New("test")
	ctx := obs.WithTracer(context.Background(), tr)
	sol, rep, err := nw.SolveMethod(ctx, MethodAuto)
	if err != nil {
		t.Fatalf("auto solve failed: %v", err)
	}
	if sol == nil {
		t.Fatal("nil solution")
	}
	if !rep.Fallback || rep.Solver != MethodSSP {
		t.Fatalf("report = %+v, want SSP fallback", rep)
	}
	tr.Finish()
	r := tr.Report()

	simplex := r.Spans("flow.simplex")
	if len(simplex) != 1 {
		t.Fatalf("flow.simplex spans = %d, want 1", len(simplex))
	}
	if got := r.Sum("flow.simplex", "pivots"); got <= 0 {
		t.Errorf("simplex pivots = %d, want > 0", got)
	}
	ssp := r.Spans("flow.ssp")
	if len(ssp) != 1 {
		t.Fatalf("flow.ssp spans = %d, want 1", len(ssp))
	}
	if got := r.Sum("flow.ssp", "augmenting_paths"); got <= 0 {
		t.Errorf("ssp augmenting_paths = %d, want > 0", got)
	}
	if got := r.Sum("flow.ssp", "units_routed"); got <= 0 {
		t.Errorf("ssp units_routed = %d, want > 0", got)
	}

	solves := r.Spans("flow.solve")
	if len(solves) != 1 {
		t.Fatalf("flow.solve spans = %d, want 1", len(solves))
	}
	sp := solves[0]
	if got := sp.Counter("fallbacks"); got != 1 {
		t.Errorf("fallbacks counter = %d, want 1", got)
	}
	if reason := sp.AttrValue("fallback_reason"); reason == "" {
		t.Error("fallback_reason attr empty")
	} else if reason != rep.FallbackReason {
		t.Errorf("fallback_reason attr %q != report reason %q", reason, rep.FallbackReason)
	}
	var sawEvent bool
	for _, ev := range spanEvents(sp) {
		if ev == "fallback" {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Error("flow.solve span missing the fallback event")
	}
}

// TestSimplexTraceCountsTreeWork pins the cost counters of a completed
// simplex solve: the moved-subtree sizes (tree_update_nodes) and the
// arcs priced by entering-arc selection (pricing_scans) are recorded,
// and a pivot moves at most all n+1 basis nodes.
func TestSimplexTraceCountsTreeWork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := randomFeasible(t, rng, 12)
	tr := obs.New("test")
	if _, err := nw.SolveSimplexCtx(obs.WithTracer(context.Background(), tr)); err != nil {
		t.Fatalf("simplex: %v", err)
	}
	tr.Finish()
	r := tr.Report()
	pivots := r.Sum("flow.simplex", "pivots")
	moved := r.Sum("flow.simplex", "tree_update_nodes")
	scans := r.Sum("flow.simplex", "pricing_scans")
	if pivots <= 0 {
		t.Fatalf("pivots = %d, want > 0", pivots)
	}
	if moved <= 0 {
		t.Errorf("tree_update_nodes = %d, want > 0", moved)
	}
	if scans <= 0 {
		t.Errorf("pricing_scans = %d, want > 0", scans)
	}
	if bound := pivots * int64(nw.NumNodes()+1); moved > bound {
		t.Errorf("tree_update_nodes = %d exceeds pivots·(n+1) = %d", moved, bound)
	}
}

// spanEvents extracts event names for assertions.
func spanEvents(sp *obs.Span) []string {
	var names []string
	for _, ev := range sp.Events() {
		names = append(names, ev.Name)
	}
	return names
}

// TestUntracedSolveHasNoSpans pins the disabled fast path: without a
// tracer in the context nothing is recorded and nothing panics.
func TestUntracedSolveHasNoSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := randomFeasible(t, rng, 10)
	if _, _, err := nw.SolveMethod(context.Background(), MethodAuto); err != nil {
		t.Fatalf("untraced solve failed: %v", err)
	}
	if tr := obs.FromContext(context.Background()); tr != nil {
		t.Fatal("FromContext on a bare context returned a tracer")
	}
}
