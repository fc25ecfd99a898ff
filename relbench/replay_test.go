package main

import (
	"context"
	"testing"

	"relatch/internal/obs"
)

// TestReplayMatchesRetime: the traced stage-by-stage replay returns the
// slaves, ED, seq_area and pivots core.RetimeCtx returns, on every
// grar-large job of the default seed, so the per-layer numbers describe
// the program the end-to-end run measures.
func TestReplayMatchesRetime(t *testing.T) {
	ctx := context.Background()
	jobs, err := batchJobs(grarLarge, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := prepareBatch(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		in := inputs[j.inputSpec]
		tr := obs.New("retime")
		run, err := runJob(obs.WithTracer(ctx, tr), j, in)
		tr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		tr = obs.New("replay")
		got, err := replayCore(obs.WithTracer(ctx, tr), j, in, newRecorder())
		tr.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got.Pivots = tr.Report().Sum("flow.simplex", "pivots")
		want := run.cols
		if got.Slaves != want.Slaves || got.ED != want.ED || got.SeqArea != want.SeqArea || got.Pivots != want.Pivots {
			t.Errorf("%s: replay gave slaves %d, ED %d, seq_area %v, pivots %d; core.RetimeCtx gave %d, %d, %v, %d",
				j.Name(), got.Slaves, got.ED, got.SeqArea, got.Pivots, want.Slaves, want.ED, want.SeqArea, want.Pivots)
		}
	}
}
