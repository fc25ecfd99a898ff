package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"relatch/internal/engine"
	"relatch/internal/obs"
	"relatch/internal/verilog"
)

// batchSetupReps is how many times a closed-loop run repeats its
// set-up; setup_s is the median.
const batchSetupReps = 15

// warmReps is how many times the closed-loop workloads revalidate a
// result right after each cold execution of its job, for warm_ms.
const warmReps = 10

// batchLatencyLimitMS is the per-job latency limit goodput_rps counts
// against on the closed-loop workloads, sized from the default seed's
// slowest job (Plasma g-rar ≈ 5 s, s35932 RVL/NVL ≈ 12 s of CPU time on a
// 2-vCPU Xeon).
var batchLatencyLimitMS = map[string]float64{
	grarLarge: 10000,
	vlRepair:  20000,
}

// runBatch runs a closed-loop workload: one client, one job at a time,
// in process, every job cold. Timings are process CPU time, not wall
// time: on a shared host the hypervisor steals up to a quarter of a vCPU
// for minutes at a time, and that shows in wall time only.
func runBatch(ctx context.Context, cfg runConfig) (*result, *tally, error) {
	jobs, err := batchJobs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	var (
		inputs   map[inputSpec]*batchInput
		setups   []float64
		buildsMS []float64
	)
	for i := 0; i < batchSetupReps; i++ {
		inputs = nil
		runtime.GC()
		rec := newRecorder()
		start := cpuTime()
		if inputs, err = prepareBatch(jobs, rec); err != nil {
			return nil, nil, err
		}
		setups = append(setups, (cpuTime() - start).Seconds())
		buildsMS = append(buildsMS, rec.vals["bench.build_ms"])
	}
	gold, err := goldenFor(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	vals := make(map[string]float64)

	if cfg.trace {
		vals["bench.build_ms"] = median(buildsMS)
		if err := tracedBatch(ctx, cfg, jobs, inputs, gold, t, vals); err != nil {
			return nil, nil, err
		}
		vals["error_rate"] = t.errorRate()
		res, err := newResult(true, vals)
		return res, t, err
	}

	// Timed phase: passes over the job list until the wall-clock budget
	// is spent. The first pass always completes; after it the loop stops
	// at the first job whose last execution would overrun the budget.
	// Each cold execution is followed by warmReps revalidations of its
	// result, so cold and warm samples spread over the whole phase. A
	// collection before each cold execution and before its revalidations
	// starts every sample from the same heap; the process CPU time counts
	// the concurrent collector, which would otherwise charge one job's
	// garbage to the next.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var (
		cold     = make([][]float64, len(jobs)) // CPU ms of each execution, per job
		warm     = make([][]float64, len(jobs)) // CPU ms of each revalidation, per job
		lastWall = make([]time.Duration, len(jobs))
		runs     []*jobRun // first pass
		firstCol = make(map[string]columns)
		limitMS  = batchLatencyLimitMS[cfg.workload]
		good     int
		rss      float64
	)
	runtime.GC()
	phaseStart := time.Now()
passes:
	for pass := 0; ; pass++ {
		for i, j := range jobs {
			if pass > 0 && time.Since(phaseStart)+lastWall[i] > budget {
				break passes
			}
			wallStart := time.Now()
			runtime.GC()
			cpuStart := cpuTime()
			run, err := runJob(ctx, j, inputs[j.inputSpec])
			lat := ms(cpuTime() - cpuStart)
			if err != nil {
				t.fail(err)
				continue
			}
			t.ok()
			cold[i] = append(cold[i], lat)
			if lat <= limitMS {
				good++
			}
			if pass == 0 {
				runs = append(runs, run)
				firstCol[j.Name()] = run.cols
				if err := checkGolden(gold, j.Name(), run.cols); err != nil {
					t.mismatch(err)
				}
			} else if prev := firstCol[j.Name()]; prev != run.cols {
				t.mismatch(fmt.Errorf("%s: pass %d gave %+v, pass 1 gave %+v", j.Name(), pass+1, run.cols, prev))
			}
			runtime.GC()
			for rep := 0; rep < warmReps; rep++ {
				cpuStart := cpuTime()
				err := revalidate(ctx, run, inputs[j.inputSpec])
				wlat := ms(cpuTime() - cpuStart)
				if err != nil {
					t.fail(err)
					continue
				}
				t.ok()
				warm[i] = append(warm[i], wlat)
			}
			lastWall[i] = time.Since(wallStart)
			logger.Info("job", "pass", pass+1, "name", j.Name(), "cpu_ms", lat,
				"warm_cpu_ms", median(warm[i]), "wall_ms", ms(lastWall[i]), "seq_area", run.cols.SeqArea)
		}
		// Peak memory over one pass: how many later passes fit in the
		// budget varies, and each can raise the high-water mark a little.
		if pass == 0 {
			if rss, err = peakRSSMB("self"); err != nil {
				return nil, nil, err
			}
		}
	}

	var area float64
	for _, run := range runs {
		area += run.cols.SeqArea
	}
	// A job's latency is the median of its executions; a pass is the
	// sum of those over the job set. The jobs' own latencies span two
	// orders of magnitude and depend on the seeded circuits, so the
	// latency metrics are means over the job set of per-job statistics.
	var coldP50, coldP95, warmP50, warmP95 float64
	executions := 0
	for i := range jobs {
		coldP50 += median(cold[i])
		coldP95 += percentile(cold[i], 95)
		warmP50 += median(warm[i])
		warmP95 += percentile(warm[i], 95)
		executions += len(cold[i])
	}
	n := float64(len(jobs))
	vals["setup_s"] = median(setups)
	vals["jobs_per_s"] = 0
	if coldP50 > 0 {
		vals["jobs_per_s"] = 1000 / (coldP50 / n)
	}
	vals["peak_rss_mb"] = rss
	vals["seq_area_total"] = area
	vals["success_rate"] = 1 - t.errorRate()
	vals["cold_ms.p50"] = coldP50 / n
	vals["cold_ms.p95"] = coldP95 / n
	vals["warm_ms.p50"] = warmP50 / n
	vals["warm_ms.p95"] = warmP95 / n
	vals["goodput_rps"] = 0
	if executions > 0 {
		vals["goodput_rps"] = vals["jobs_per_s"] * float64(good) / float64(executions)
	}
	res, err := newResult(false, vals)
	return res, t, err
}

// tracedBatch is the traced run of a closed-loop workload: one untraced
// pass (for the trace-overhead base and the GC counters), then one traced
// pass that reports the per-layer metrics. grar-large replays each job
// stage by stage under the benchmark's own spans; vl-repair runs
// vlib.RetimeCtx under an obs tracer, reads its span tree, and replays
// its generated circuits as job requests through the engine and queue.
func tracedBatch(ctx context.Context, cfg runConfig, jobs []jobSpec, inputs map[inputSpec]*batchInput,
	gold map[string]columns, t *tally, vals map[string]float64) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	base := make(map[string]columns)
	for _, j := range jobs {
		run, err := runJob(ctx, j, inputs[j.inputSpec])
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok()
		base[j.Name()] = run.cols
	}
	untraced := time.Since(start)
	runtime.ReadMemStats(&after)
	vals["gc.cycles"] = float64(after.NumGC - before.NumGC)
	vals["gc.pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6

	rec := newRecorder()
	runtime.GC()
	start = time.Now()
	for _, j := range jobs {
		tr := obs.New("relbench")
		jctx := obs.WithTracer(ctx, tr)
		var (
			cols columns
			err  error
		)
		if cfg.workload == grarLarge {
			cols, err = replayCore(jctx, j, inputs[j.inputSpec], rec)
		} else {
			var run *jobRun
			if run, err = runJob(jctx, j, inputs[j.inputSpec]); err == nil {
				cols = run.cols
				rec.add("rgraph.constraints", float64(cols.Constraints))
			}
		}
		tr.Finish()
		if err != nil {
			t.fail(err)
			continue
		}
		t.ok()
		rep := tr.Report()
		cols.Pivots = rep.Sum("flow.simplex", "pivots")
		readFlowSpans(rep, rec)
		if cfg.workload == vlRepair {
			readVLibSpans(rep, rec)
		}
		if err := checkGolden(gold, j.Name(), cols); err != nil {
			t.mismatch(err)
		}
		if b, ok := base[j.Name()]; ok && b != cols.resultColumns() {
			t.mismatch(fmt.Errorf("%s: traced run gave %+v, untraced run gave %+v", j.Name(), cols.resultColumns(), b))
		}
	}
	traced := time.Since(start)
	for k, v := range rec.vals {
		vals[k] = v
	}
	vals["trace.overhead_pct"] = (traced.Seconds()/untraced.Seconds() - 1) * 100
	if cfg.workload != vlRepair {
		return nil
	}
	// The engine, queue and verilog layers, on the workload's generated
	// circuits submitted as Verilog job requests (serve-mixed, which
	// measures them against a live server, is not steady enough to gate).
	payloads, err := vlibPayloads(jobs)
	if err != nil {
		return err
	}
	dir, err := runDir(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return replayPayloads(ctx, dir, payloads, t, vals)
}

// vlibPayloads renders the jobs on generated (non-anchor) inputs as
// Verilog job requests, the form a client submits them in.
func vlibPayloads(jobs []jobSpec) ([]servePayload, error) {
	var out []servePayload
	for _, j := range jobs {
		if j.Seed == anchorSource {
			continue
		}
		seq, _, err := j.inputSpec.buildSeq()
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		if err := verilog.Write(&b, seq); err != nil {
			return nil, fmt.Errorf("relbench: emitting %s: %w", j.Name(), err)
		}
		c := j.C
		req := engine.JobRequest{Verilog: b.String(), Approach: string(j.Approach), C: &c}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		out = append(out, servePayload{Name: j.Name(), Req: req, Body: body})
	}
	return out, nil
}

// readFlowSpans sums the flow layer's own spans and counters.
func readFlowSpans(rep *obs.Report, rec *recorder) {
	for _, sp := range rep.Spans("flow.simplex") {
		rec.add("flow.simplex_ms", ms(sp.Duration()))
		rec.add("flow.pivots", float64(sp.Counter("pivots")))
		rec.add("flow.degenerate_pivots", float64(sp.Counter("degenerate_pivots")))
	}
	for _, sp := range rep.Spans("flow.certify") {
		rec.add("flow.certify_ms", ms(sp.Duration()))
	}
}

// readVLibSpans reads the virtual-library flow off its vlib.retime span:
// wall time, repair counters, the solves under it, and the part of its
// wall no child span covers (the un-spanned rebuilds between attempts).
func readVLibSpans(rep *obs.Report, rec *recorder) {
	for _, sp := range rep.Spans("vlib.retime") {
		wall := sp.Duration()
		rec.add("vlib.retime_ms", ms(wall))
		rec.add("vlib.attempts", float64(sp.Counter("attempts")))
		rec.add("vlib.relaxed", float64(sp.Counter("relaxed")))
		var covered time.Duration
		var coveredEnd time.Time
		for _, c := range sp.Children() {
			s, e := c.Start(), c.Start().Add(c.Duration())
			if s.Before(coveredEnd) {
				s = coveredEnd
			}
			if e.After(s) {
				covered += e.Sub(s)
				coveredEnd = e
			}
			walkSpans(c, func(d *obs.Span) {
				switch d.Name() {
				case "rgraph.solve":
					rec.add("vlib.solve_ms", ms(d.Duration()))
				case "flow.simplex":
					rec.add("vlib.simplex_ms", ms(d.Duration()))
					rec.add("vlib.pivots", float64(d.Counter("pivots")))
				}
			})
		}
		rec.add("vlib.unattributed_ms", ms(wall-covered))
	}
}

func walkSpans(s *obs.Span, fn func(*obs.Span)) {
	fn(s)
	for _, c := range s.Children() {
		walkSpans(c, fn)
	}
}

// seedKey renders a seed as the golden reference's map key.
func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }
