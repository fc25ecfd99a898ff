package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"relatch/internal/cell"
	"relatch/internal/cert"
	"relatch/internal/clocking"
	"relatch/internal/core"
	"relatch/internal/lint"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/rgraph"
	"relatch/internal/sta"
	"relatch/internal/vlib"
)

// columns are the deterministic outputs of one job: the golden
// reference's columns. Pivots, Variables, Constraints and Attempts come
// from the obs span tree, so only traced executions fill them.
type columns struct {
	Slaves      int     `json:"slaves"`
	Masters     int     `json:"masters"`
	ED          int     `json:"ed"`
	SeqArea     float64 `json:"seq_area"`
	TotalArea   float64 `json:"total_area"`
	Pivots      int64   `json:"pivots,omitempty"`
	Variables   int64   `json:"variables,omitempty"`
	Constraints int64   `json:"constraints,omitempty"`
	Attempts    int64   `json:"attempts,omitempty"`
}

// resultColumns compares only the columns every execution reports.
func (c columns) resultColumns() columns {
	return columns{Slaves: c.Slaves, Masters: c.Masters, ED: c.ED, SeqArea: c.SeqArea, TotalArea: c.TotalArea}
}

// batchInput is one generated input circuit with its clocking.
type batchInput struct {
	spec    inputSpec
	circuit *netlist.Circuit
	scheme  clocking.Scheme
}

// prepareBatch generates every distinct input the jobs name, timing each
// generator call into rec.
func prepareBatch(jobs []jobSpec, rec *recorder) (map[inputSpec]*batchInput, error) {
	inputs := make(map[inputSpec]*batchInput)
	for _, j := range jobs {
		if inputs[j.inputSpec] != nil {
			continue
		}
		var (
			c   *netlist.Circuit
			s   clocking.Scheme
			err error
		)
		rec.time("bench.build_ms", func() { c, s, err = j.inputSpec.build() })
		if err != nil {
			return nil, err
		}
		inputs[j.inputSpec] = &batchInput{spec: j.inputSpec, circuit: c, scheme: s}
	}
	return inputs, nil
}

// jobRun is a finished job: its columns and the solved result, kept for
// the revalidation pass.
type jobRun struct {
	spec jobSpec
	cols columns
	core *core.Result
	vlib *vlib.Result
}

func (j jobSpec) coreOptions(in *batchInput) core.Options {
	return core.Options{Scheme: in.scheme, EDLCost: j.C}
}

// runJob executes one job the way the engine does for the rar job path:
// core approaches through core.RetimeCtx on a clone (which certifies
// internally), virtual-library approaches through vlib.RetimeCtx followed
// by the engine's certification of the result. With a tracer on ctx it
// also reads the solver counters off the job's span tree.
func runJob(ctx context.Context, j jobSpec, in *batchInput) (*jobRun, error) {
	tr := obs.FromContext(ctx)
	run := &jobRun{spec: j}
	if !j.Approach.IsVLib() {
		res, err := core.RetimeCtx(ctx, in.circuit.Clone(), j.coreOptions(in), j.Approach.CoreApproach())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", j.Name(), err)
		}
		run.core = res
		run.cols = columns{Slaves: res.SlaveCount, Masters: res.MasterCount, ED: res.EDCount,
			SeqArea: res.SeqArea, TotalArea: res.TotalArea}
		if tr != nil {
			rep := tr.Report()
			run.cols.Pivots = rep.Sum("flow.simplex", "pivots")
			run.cols.Variables = lastGauge(rep, "rgraph.build", "variables")
			run.cols.Constraints = lastGauge(rep, "rgraph.build", "constraints")
		}
		return run, nil
	}
	shape := cert.Snapshot(in.circuit)
	res, err := vlib.RetimeCtx(ctx, in.circuit, vlib.Options{
		Scheme: in.scheme, EDLCost: j.C, PostSwap: true,
	}, j.Approach.Variant())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.Name(), err)
	}
	crt, err := cert.Run(ctx, vlibSubject(shape, j, in, res), cert.Config{AllowResizing: true})
	if err != nil {
		return nil, fmt.Errorf("%s: certifying: %w", j.Name(), err)
	}
	if ferr := crt.Err(); ferr != nil {
		return nil, fmt.Errorf("%s: %w", j.Name(), ferr)
	}
	run.vlib = res
	run.cols = columns{Slaves: res.SlaveCount, Masters: res.MasterCount, ED: res.EDCount,
		SeqArea: res.SeqArea, TotalArea: res.TotalArea}
	if tr != nil {
		rep := tr.Report()
		run.cols.Pivots = rep.Sum("flow.simplex", "pivots")
		run.cols.Variables = lastGauge(rep, "rgraph.solve", "variables")
		run.cols.Constraints = lastGauge(rep, "rgraph.solve", "constraints")
		run.cols.Attempts = rep.Sum("vlib.retime", "attempts")
	}
	return run, nil
}

func vlibSubject(shape *cert.Shape, j jobSpec, in *batchInput, res *vlib.Result) cert.Subject {
	return cert.Subject{
		Original:    shape,
		Retimed:     res.Circuit,
		Placement:   res.Placement,
		Scheme:      in.scheme,
		Latch:       res.Circuit.Lib.BaseLatch,
		EDMasters:   res.EDMasters,
		SlaveCount:  res.SlaveCount,
		MasterCount: res.MasterCount,
		EDCount:     res.EDCount,
		SeqArea:     res.SeqArea,
		EDLCost:     j.C,
		Approach:    j.Approach.Display(),
	}
}

// lastGauge reads a gauge off the last span of that name (the accepted
// attempt, for flows that rebuild).
func lastGauge(rep *obs.Report, span, gauge string) int64 {
	spans := rep.Spans(span)
	for i := len(spans) - 1; i >= 0; i-- {
		if v, ok := spans[i].GaugeValue(gauge); ok {
			return v
		}
	}
	return 0
}

// revalidate re-derives and re-certifies a solved job from its placement
// alone — the work a warm cache hit does — and checks it reproduces the
// solve's columns. The batch workloads use no cache; this is how they
// measure warm latency.
func revalidate(ctx context.Context, run *jobRun, in *batchInput) error {
	j := run.spec
	if run.core != nil {
		opt := j.coreOptions(in)
		clone := in.circuit.Clone()
		res, err := core.EvaluateCtx(ctx, clone, opt, j.Approach.CoreApproach(), run.core.Placement)
		if err != nil {
			return fmt.Errorf("%s: revalidating: %w", j.Name(), err)
		}
		evalOpt := core.EvalOptions(clone, opt)
		crt, err := cert.Run(ctx, cert.Subject{
			Original:    cert.Snapshot(in.circuit),
			Retimed:     clone,
			Placement:   run.core.Placement,
			Scheme:      in.scheme,
			Latch:       core.SlaveLatch(clone, opt),
			StaOptions:  &evalOpt,
			EDMasters:   res.EDMasters,
			Reclaimed:   run.core.Reclaimed,
			SlaveCount:  res.SlaveCount,
			MasterCount: res.MasterCount,
			EDCount:     res.EDCount,
			SeqArea:     res.SeqArea,
			EDLCost:     j.C,
			Objective:   run.core.Objective,
			Approach:    j.Approach.Display(),
		}, cert.Config{})
		if err != nil {
			return fmt.Errorf("%s: revalidating: %w", j.Name(), err)
		}
		if ferr := crt.Err(); ferr != nil {
			return fmt.Errorf("%s: revalidating: %w", j.Name(), ferr)
		}
		got := columns{Slaves: res.SlaveCount, Masters: res.MasterCount, ED: res.EDCount,
			SeqArea: res.SeqArea, TotalArea: res.TotalArea}
		if got != run.cols.resultColumns() {
			return fmt.Errorf("%s: revalidation re-derived %+v, solve reported %+v", j.Name(), got, run.cols.resultColumns())
		}
		return nil
	}
	res := run.vlib
	if err := res.Placement.Validate(res.Circuit); err != nil {
		return fmt.Errorf("%s: revalidating: %w", j.Name(), err)
	}
	seqArea := cell.SeqAreaOf(res.Circuit.Lib, j.C, res.Placement.SlaveCount(), res.Circuit.FlopCount(), len(res.EDMasters))
	if seqArea != res.SeqArea {
		return fmt.Errorf("%s: revalidation re-derived seq area %v, solve reported %v", j.Name(), seqArea, res.SeqArea)
	}
	crt, err := cert.Run(ctx, vlibSubject(cert.Snapshot(in.circuit), j, in, res), cert.Config{AllowResizing: true})
	if err != nil {
		return fmt.Errorf("%s: revalidating: %w", j.Name(), err)
	}
	return crt.Err()
}

// replayCore runs one core job stage by stage through the public calls
// core.RetimeCtx makes, recording a span around each:
// lint.Run → sta.AnalyzeCtx → cert.Snapshot → rgraph.Build →
// (*rgraph.Graph).SolveCtx → core.EvaluateCtx → cert.Run.
func replayCore(ctx context.Context, j jobSpec, in *batchInput, rec *recorder) (columns, error) {
	var cols columns
	c := in.circuit.Clone()
	opt := j.coreOptions(in)
	ap := j.Approach.CoreApproach()

	var (
		lintRep *lint.Report
		err     error
	)
	rec.time("lint.run_ms", func() {
		lintRep, err = lint.Run(ctx, lint.Input{Circuit: c},
			lint.Config{ErrorsOnly: true, Disabled: map[string]bool{"flow-conservation": true}})
	})
	if err != nil {
		return cols, fmt.Errorf("%s: lint: %w", j.Name(), err)
	}
	if ferr := lintRep.Err(); ferr != nil {
		return cols, fmt.Errorf("%s: lint: %w", j.Name(), ferr)
	}
	var timing *sta.Timing
	rec.time("sta.analyze_ms", func() { timing = sta.AnalyzeCtx(ctx, c, sta.DefaultOptions(c.Lib)) })
	latch := core.SlaveLatch(c, opt)
	var shape *cert.Shape
	rec.time("cert.snapshot_ms", func() { shape = cert.Snapshot(c) })

	var g *rgraph.Graph
	rec.timeAlloc("rgraph.build", func() {
		g, err = rgraph.Build(c, timing, rgraph.Config{
			Scheme:          opt.Scheme,
			Latch:           latch,
			EDLCost:         opt.EDLCost,
			ResilientAware:  ap == core.ApproachGRAR,
			MovementPrimary: ap == core.ApproachBase,
		})
	})
	if err != nil {
		return cols, fmt.Errorf("%s: rgraph.Build: %w", j.Name(), err)
	}
	cols.Variables = int64(g.NumVariables())
	cols.Constraints = int64(g.NumConstraints())
	rec.add("rgraph.variables", float64(cols.Variables))
	rec.add("rgraph.constraints", float64(cols.Constraints))

	var sol *rgraph.Solution
	rec.timeAlloc("rgraph.solve", func() { sol, err = g.SolveCtx(ctx, opt.Method) })
	if err != nil {
		return cols, fmt.Errorf("%s: solve: %w", j.Name(), err)
	}
	var res *core.Result
	rec.time("core.evaluate_ms", func() { res, err = core.EvaluateCtx(ctx, c, opt, ap, sol.Placement) })
	if err != nil {
		return cols, fmt.Errorf("%s: evaluate: %w", j.Name(), err)
	}
	evalOpt := core.EvalOptions(c, opt)
	var crt *cert.Certificate
	rec.time("cert.run_ms", func() {
		crt, err = cert.Run(ctx, cert.Subject{
			Original:    shape,
			Retimed:     c,
			Placement:   res.Placement,
			Scheme:      opt.Scheme,
			Latch:       latch,
			StaOptions:  &evalOpt,
			EDMasters:   res.EDMasters,
			Reclaimed:   sol.PseudoFired,
			SlaveCount:  res.SlaveCount,
			MasterCount: res.MasterCount,
			EDCount:     res.EDCount,
			SeqArea:     res.SeqArea,
			EDLCost:     opt.EDLCost,
			Objective:   sol.Objective,
			Approach:    ap.String(),
		}, cert.Config{})
	})
	if err != nil {
		return cols, fmt.Errorf("%s: certifying: %w", j.Name(), err)
	}
	if ferr := crt.Err(); ferr != nil {
		return cols, fmt.Errorf("%s: %w", j.Name(), ferr)
	}
	cols.Slaves, cols.Masters, cols.ED = res.SlaveCount, res.MasterCount, res.EDCount
	cols.SeqArea, cols.TotalArea = res.SeqArea, res.TotalArea
	return cols, nil
}

// recorder is the benchmark's own span sink for traced runs: it sums the
// wall time (and, for timeAlloc, the heap bytes allocated) of each named
// call. A nil recorder runs the calls untimed.
type recorder struct {
	vals map[string]float64
}

func newRecorder() *recorder { return &recorder{vals: make(map[string]float64)} }

func (r *recorder) time(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	r.vals[name] += ms(time.Since(start))
}

// timeAlloc records name+"_ms" and the TotalAlloc delta as
// name+"_alloc_mb".
func (r *recorder) timeAlloc(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	r.vals[name+"_ms"] += ms(time.Since(start))
	runtime.ReadMemStats(&after)
	r.vals[name+"_alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

func (r *recorder) add(name string, v float64) {
	if r != nil {
		r.vals[name] += v
	}
}
