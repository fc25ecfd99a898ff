package vlib

import (
	"context"
	"strconv"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/obs"
)

// TestRepairLoopSpansEachBuild pins that every attempt of the
// relax-and-retry loop records its graph build as an "rgraph.build"
// child of vlib.retime, tagged with the attempt number. s1196 NVL
// needs several attempts, so the loop is exercised past the first.
func TestRepairLoopSpansEachBuild(t *testing.T) {
	p, ok := bench.ProfileByName("s1196")
	if !ok {
		t.Fatal("s1196 profile missing")
	}
	c, scheme, err := p.Build(cell.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("test")
	if _, err := RetimeCtx(obs.WithTracer(context.Background(), tr), c, Options{Scheme: scheme, EDLCost: 1, PostSwap: true}, NVL); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	r := tr.Report()
	attempts := r.Sum("vlib.retime", "attempts")
	if attempts < 2 {
		t.Fatalf("attempts = %d, want a multi-attempt repair loop", attempts)
	}
	roots := r.Spans("vlib.retime")
	if len(roots) != 1 {
		t.Fatalf("%d vlib.retime spans, want 1", len(roots))
	}
	var builds []*obs.Span
	for _, ch := range roots[0].Children() {
		if ch.Name() == "rgraph.build" {
			builds = append(builds, ch)
		}
	}
	if int64(len(builds)) != attempts || len(r.Spans("rgraph.build")) != len(builds) {
		t.Fatalf("%d rgraph.build children (%d in the trace), want one per attempt (%d)",
			len(builds), len(r.Spans("rgraph.build")), attempts)
	}
	for i, b := range builds {
		if got := b.AttrValue("attempt"); got != strconv.Itoa(i) {
			t.Errorf("build %d: attempt attr %q, want %q", i, got, strconv.Itoa(i))
		}
		if v, ok := b.GaugeValue("constraints"); !ok || v <= 0 {
			t.Errorf("build %d: constraints gauge %d (present %v), want > 0", i, v, ok)
		}
	}
}
