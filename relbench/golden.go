package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"relatch/internal/obs"
)

// goldenJSON is the golden reference: the deterministic columns of every
// job of every workload, for the default and the held-out seed,
// recomputed with -update-golden. Layout: workload → seed → job → columns.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile map[string]map[string]map[string]columns

// goldenFor returns the golden columns of a workload at a seed, or nil
// when the seed has no golden reference.
func goldenFor(workload string, seed int64) (map[string]columns, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("relbench: embedded golden.json: %w", err)
	}
	return g[workload][seedKey(seed)], nil
}

// checkGolden compares a job's columns with its golden row. Columns the
// execution did not measure (zero counters of an untraced run) are not
// compared. A seed without a golden reference passes.
func checkGolden(gold map[string]columns, name string, got columns) error {
	if gold == nil {
		return nil
	}
	want, ok := gold[name]
	if !ok {
		return fmt.Errorf("%s: no golden row", name)
	}
	if got.Pivots == 0 {
		want.Pivots = 0
	}
	if got.Variables == 0 {
		want.Variables = 0
	}
	if got.Constraints == 0 {
		want.Constraints = 0
	}
	if got.Attempts == 0 {
		want.Attempts = 0
	}
	if got != want {
		return fmt.Errorf("%s: golden mismatch: got %+v, want %+v", name, got, want)
	}
	return nil
}

// writeGolden recomputes the golden reference for the default and the
// held-out seed of every workload, with tracing on so every column is
// filled, and writes it to path.
func writeGolden(ctx context.Context, path string) error {
	g := goldenFile{}
	for _, w := range workloads {
		g[w] = map[string]map[string]columns{}
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			rows, err := goldenRows(ctx, w, seed)
			if err != nil {
				return err
			}
			g[w][seedKey(seed)] = rows
			logger.Info("golden", "workload", w, "seed", seed, "jobs", len(rows))
		}
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// goldenRows computes one workload's golden rows for a seed.
func goldenRows(ctx context.Context, workload string, seed int64) (map[string]columns, error) {
	if workload == serveMixed {
		return serveGoldenRows(ctx, seed)
	}
	jobs, err := batchJobs(workload, seed)
	if err != nil {
		return nil, err
	}
	inputs, err := prepareBatch(jobs, nil)
	if err != nil {
		return nil, err
	}
	rows := make(map[string]columns)
	for _, j := range jobs {
		tr := obs.New("golden")
		run, err := runJob(obs.WithTracer(ctx, tr), j, inputs[j.inputSpec])
		tr.Finish()
		if err != nil {
			return nil, err
		}
		rows[j.Name()] = run.cols
	}
	return rows, nil
}
