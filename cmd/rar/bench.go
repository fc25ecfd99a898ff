package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/core"
	"relatch/internal/engine"
	"relatch/internal/flow"
	"relatch/internal/obs"
	"relatch/internal/sta"
)

// benchSchemaVersion identifies the -bench-json output layout: bumped
// when rows gain/lose columns or the envelope changes shape. v3 made
// solver/fallback unconditionally present: omitempty on solver meant
// vlib rows (which have no LP solver) silently dropped the column, so
// the row schema depended on the approach.
const benchSchemaVersion = 3

// benchRow is one benchmark×approach measurement of the bench-json mode.
// Everything except wall_ms is deterministic for a given build, so
// the outputs of two builds diff cleanly on the columns that matter.
type benchRow struct {
	Bench         string  `json:"bench"`
	Approach      string  `json:"approach"`
	WallMS        float64 `json:"wall_ms"`
	Pivots        int64   `json:"pivots"`
	Augmentations int64   `json:"augmentations"`
	Solver        string  `json:"solver"`
	Fallback      bool    `json:"fallback"`
	Slaves        int     `json:"slaves"`
	Masters       int     `json:"masters"`
	ED            int     `json:"ed"`
	SeqArea       float64 `json:"seq_area"`
	TotalArea     float64 `json:"total_area"`
	// Cache records where a warm-cache row came from ("memory" or
	// "disk"); empty — and omitted — on cold, solved rows.
	Cache string `json:"cache,omitempty"`
}

// benchDoc is the envelope -bench-json emits: a schema version plus the
// rows sorted by (bench, approach), so equal results diff byte-equal.
type benchDoc struct {
	SchemaVersion int        `json:"schema_version"`
	Rows          []benchRow `json:"rows"`
}

// parseBenchList resolves the comma-separated -bench list ("all" expands
// to the whole suite), rejecting unknown and duplicate names up front so
// a bad token costs a usage error, not half a sweep.
func parseBenchList(arg string) ([]bench.Profile, error) {
	if arg == "" {
		return nil, usagef("-bench-json needs -bench (comma-separated benchmark names; try -list)")
	}
	if arg == "all" {
		return bench.ISCAS89, nil
	}
	var out []bench.Profile
	seen := make(map[string]bool)
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		prof, ok := bench.ProfileByName(name)
		if !ok {
			return nil, usagef("unknown benchmark %q in -bench (try -list)", name)
		}
		if seen[name] {
			return nil, usagef("duplicate benchmark %q in -bench", name)
		}
		seen[name] = true
		out = append(out, prof)
	}
	if len(out) == 0 {
		return nil, usagef("-bench list %q names no benchmarks", arg)
	}
	return out, nil
}

// parseApproachList resolves the comma-separated -approach list the same
// way: every token is checked before any work starts.
func parseApproachList(arg string) ([]engine.Approach, error) {
	var out []engine.Approach
	seen := make(map[engine.Approach]bool)
	for _, tok := range strings.Split(arg, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		ap, err := engine.ParseApproach(tok)
		if err != nil {
			return nil, usagef("unknown approach %q in -approach (want grar, base, nvl, evl or rvl)", tok)
		}
		if seen[ap] {
			return nil, usagef("duplicate approach %q in -approach", tok)
		}
		seen[ap] = true
		out = append(out, ap)
	}
	if len(out) == 0 {
		return nil, usagef("-approach list %q names no approaches", arg)
	}
	return out, nil
}

// runBenchJSON is the -bench-json mode: run every benchmark in the
// -bench list under every approach in the -approach list as engine jobs
// (-j bounds the worker pool; results are identical at any -j), then
// print the sorted rows inside a versioned envelope on stdout.
func runBenchJSON(ctx context.Context, o options) error {
	rows, stats, err := benchSweep(ctx, o)
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprintf(os.Stderr, "%-8s %-7s %8.1f ms  pivots=%-6d augmentations=%-6d seq_area=%.2f\n",
			row.Bench, row.Approach, row.WallMS, row.Pivots, row.Augmentations, row.SeqArea)
	}
	if stats.Cache.Hits+stats.Cache.DiskHits > 0 || o.cacheDir != "" {
		fmt.Fprintf(os.Stderr, "engine cache: %d memory hits, %d disk hits, %d misses, %d stored, %d evicted, %d poisoned\n",
			stats.Cache.Hits, stats.Cache.DiskHits, stats.Cache.Misses,
			stats.Cache.Stores, stats.Cache.Evictions, stats.Cache.Poisoned)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(benchDoc{SchemaVersion: benchSchemaVersion, Rows: rows})
}

// benchSweep validates the lists, runs every benchmark×approach cell on
// a fresh engine, one goroutine per cell, and collects rows by cell
// index (so the output is independent of completion order) before
// sorting them by (bench, approach). Solver effort comes from a per-row
// tracer: pivots is the sum over that row's flow.simplex spans,
// augmentations over its flow.ssp spans — both zero when the row came
// from the cache.
func benchSweep(ctx context.Context, o options) ([]benchRow, engine.Stats, error) {
	m, err := flow.ParseMethod(o.method)
	if err != nil {
		return nil, engine.Stats{}, usagef("%v", err)
	}
	benches, err := parseBenchList(o.benchName)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	approaches, err := parseApproachList(o.approach)
	if err != nil {
		return nil, engine.Stats{}, err
	}

	cache, err := engine.NewCache(0, o.cacheDir)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	eng := engine.New(engine.Config{Workers: o.jobs, Cache: cache})
	defer eng.Close()

	lib := cell.Default(o.overhead)
	type sweepCell struct {
		prof   bench.Profile
		ap     engine.Approach
		job    engine.Job
		tracer *obs.Tracer
	}
	var cells []sweepCell
	for _, prof := range benches {
		// One circuit per benchmark, shared by its rows: core jobs solve
		// clones and the virtual-library flow clones internally, so rows
		// never see each other's mutations.
		seq, err := prof.BuildSeq(lib)
		if err != nil {
			return nil, engine.Stats{}, err
		}
		c, scheme, err := prof.CutAndCalibrate(seq)
		if err != nil {
			return nil, engine.Stats{}, err
		}
		opt := core.Options{Scheme: scheme, EDLCost: o.overhead, Method: m}
		if o.gateModel {
			opt.TimingModel = sta.ModelGate
		}
		for _, ap := range approaches {
			cells = append(cells, sweepCell{
				prof:   prof,
				ap:     ap,
				job:    engine.Job{Circuit: c, Approach: ap, Options: opt, PostSwap: ap.IsVLib()},
				tracer: obs.New("bench"),
			})
		}
	}

	outs := make([]*engine.Outcome, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, cl := range cells {
		wg.Add(1)
		go func(i int, cl sweepCell) {
			defer wg.Done()
			outs[i], errs[i] = eng.Do(obs.WithTracer(ctx, cl.tracer), cl.job)
		}(i, cl)
	}
	wg.Wait()

	rows := make([]benchRow, 0, len(cells))
	for i, cl := range cells {
		if errs[i] != nil {
			return nil, engine.Stats{}, fmt.Errorf("%s/%s: %w", cl.prof.Name, cl.ap, errs[i])
		}
		out := outs[i]
		cl.tracer.Finish()
		rep := cl.tracer.Report()
		sum := out.Summary()
		rows = append(rows, benchRow{
			Bench:         cl.prof.Name,
			Approach:      sum.Approach,
			WallMS:        float64(out.Runtime.Microseconds()) / 1000,
			Pivots:        rep.Sum("flow.simplex", "pivots"),
			Augmentations: rep.Sum("flow.ssp", "augmenting_paths"),
			Solver:        sum.Solver,
			Fallback:      sum.Fallback,
			Slaves:        sum.Slaves,
			Masters:       sum.Masters,
			ED:            sum.ED,
			SeqArea:       sum.SeqArea,
			TotalArea:     sum.TotalArea,
			Cache:         sum.CacheLayer,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Bench != rows[j].Bench {
			return rows[i].Bench < rows[j].Bench
		}
		return rows[i].Approach < rows[j].Approach
	})
	return rows, eng.Stats(), nil
}
