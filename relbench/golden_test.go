package main

import (
	"context"
	"math"
	"testing"

	"relatch/internal/engine"
	"relatch/internal/obs"
)

// smallestJob picks the job on the smallest input circuit.
func smallestJob(t *testing.T, workload string) (jobSpec, *batchInput) {
	t.Helper()
	jobs, err := batchJobs(workload, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var (
		best   jobSpec
		bestIn *batchInput
	)
	for _, j := range jobs {
		c, s, err := j.inputSpec.build()
		if err != nil {
			t.Fatal(err)
		}
		if bestIn == nil || len(c.Nodes) < len(bestIn.circuit.Nodes) {
			best, bestIn = j, &batchInput{spec: j.inputSpec, circuit: c, scheme: s}
		}
	}
	return best, bestIn
}

// TestGoldenSmallestBatchJobs runs the smallest job of each closed-loop
// workload at the default seed, traced, against its golden row.
func TestGoldenSmallestBatchJobs(t *testing.T) {
	for _, w := range []string{grarLarge, vlRepair} {
		j, in := smallestJob(t, w)
		tr := obs.New("golden")
		run, err := runJob(obs.WithTracer(context.Background(), tr), j, in)
		tr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		gold, err := goldenFor(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkGolden(gold, j.Name(), run.cols); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// TestGoldenSmallestServeJob runs the smallest serve-mixed payload of
// the default seed through the engine against its golden row.
func TestGoldenSmallestServeJob(t *testing.T) {
	sch, err := buildServeSchedule(defaultSeed, int(math.Round(goldenServeSeconds*serveRate)))
	if err != nil {
		t.Fatal(err)
	}
	best := sch.payloads[0]
	for _, p := range sch.payloads {
		if len(p.Req.Verilog) < len(best.Req.Verilog) {
			best = p
		}
	}
	job, err := engine.BuildJob(best.Req)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	tr := obs.New("golden")
	out, err := eng.Do(obs.WithTracer(context.Background(), tr), job)
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	s := out.Summary()
	got := columns{Slaves: s.Slaves, Masters: s.Masters, ED: s.ED, SeqArea: s.SeqArea, TotalArea: s.TotalArea,
		Pivots: tr.Report().Sum("flow.simplex", "pivots")}
	if !s.Certified {
		t.Errorf("%s: not certified", best.Name)
	}
	gold, err := goldenFor(serveMixed, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(gold, best.Name, got); err != nil {
		t.Error(err)
	}
}
