// Package experiments reproduces every table of the paper's evaluation
// (Section VI, Tables I–IX) on the benchmark suite: it runs base
// retiming, G-RAR under both delay models, the three virtual-library
// variants, the movable-master extension and the error-rate simulation
// for every circuit and EDL overhead, then renders the paper's tables
// from the collected results.
package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/core"
	"relatch/internal/engine"
	"relatch/internal/flow"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/sim"
	"relatch/internal/sta"
	"relatch/internal/vlib"
)

// Overheads are the paper's EDL overhead sweep: low, medium, high.
var Overheads = []float64{0.5, 1.0, 2.0}

// OverheadName labels an overhead value the way the tables do.
func OverheadName(c float64) string {
	switch c {
	case 0.5:
		return "Low"
	case 1.0:
		return "Medium"
	case 2.0:
		return "High"
	}
	return fmt.Sprintf("c=%g", c)
}

// Config tunes a suite run.
type Config struct {
	// Profiles selects benchmark names; nil runs all twelve.
	Profiles []string
	// Overheads sweeps EDL cost; nil uses the paper's {0.5, 1, 2}.
	Overheads []float64
	// SimCycles bounds the error-rate simulation length per run; large
	// circuits are automatically scaled down. 0 picks a default.
	SimCycles int
	// MovableTrials bounds the master-move hill climb (Table IX).
	MovableTrials int
	// Method selects the flow solver.
	Method flow.Method
	// Parallelism bounds how many benchmarks sweep concurrently and how
	// many retiming jobs the backing engine solves at once (≤ 1 runs
	// serially). Results are identical at any setting: every job solves
	// on its own clone and rows are collected in submission order.
	Parallelism int
	// CacheDir, when non-empty, adds an on-disk layer to the engine's
	// result cache, so repeated sweeps restore (and re-certify) results
	// instead of re-running the flow solver.
	CacheDir string
	// Logger, when non-nil, receives one structured record per completed
	// step (obs.NewLogger renders them as compact single lines); nil
	// discards progress.
	Logger *slog.Logger
}

// CircuitRun holds everything measured for one benchmark.
type CircuitRun struct {
	Profile bench.Profile
	Seq     *netlist.SeqCircuit
	Circuit *netlist.Circuit
	Scheme  clocking.Scheme

	// Table I quantities.
	FlopAreaDesign float64 // flip-flop design area (FF + comb)
	InitialED      int     // measured NCE
	GenRuntime     time.Duration

	ByOverhead map[float64]*OverheadRun
}

// OverheadRun is one (circuit, c) cell of the sweep.
type OverheadRun struct {
	C float64

	Base     *core.Result
	GRARPath *core.Result
	GRARGate *core.Result

	NVL, EVL, RVL *vlib.Result
	Movable       *vlib.MovableResult

	// GReclaim is the sizing-reclaim ablation (Section VI-D's closing
	// observation): G-RAR's result after max-delay constraints at Π and
	// a size-only compile.
	GReclaim       *core.Result
	ReclaimUpsized int

	ErrBase, ErrRVL, ErrG, ErrGReclaim sim.Stats
}

// Suite is a completed sweep.
type Suite struct {
	Config Config
	Runs   []*CircuitRun
}

func (cfg *Config) logger() *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	return obs.DiscardLogger()
}

// simCycles scales the simulation length to the circuit size.
func (cfg *Config) simCycles(gates int) int {
	base := cfg.SimCycles
	if base <= 0 {
		base = 1000
	}
	if gates > 5000 {
		return base / 4
	}
	if gates > 2000 {
		return base / 2
	}
	return base
}

// RunCtx executes the sweep. Cancellation or deadline expiry stops
// the sweep between stages (and mid-solve inside each stage, since every
// stage threads the context down to its flow solver or event loop) and
// surfaces as an error wrapping ctx.Err().
//
// The retiming stages run as jobs on an engine bounded by
// Config.Parallelism; benchmarks sweep concurrently under the same
// bound. Suite.Runs keeps the requested profile order and every run is
// byte-identical to a serial sweep — jobs solve on clones, and results
// are collected by job index, not by completion order.
func RunCtx(ctx context.Context, cfg Config) (*Suite, error) {
	lib := cell.Default(1.0)
	profiles := cfg.Profiles
	if profiles == nil {
		for _, p := range bench.ISCAS89 {
			profiles = append(profiles, p.Name)
		}
	}
	// Validate the whole list before burning any solve on it.
	profs := make([]bench.Profile, len(profiles))
	for i, name := range profiles {
		prof, ok := bench.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
		}
		profs[i] = prof
	}
	overheads := cfg.Overheads
	if overheads == nil {
		overheads = Overheads
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = 1
	}
	cache, err := engine.NewCache(0, cfg.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	eng := engine.New(engine.Config{Workers: workers, Cache: cache})
	defer eng.Close()

	suite := &Suite{Config: cfg}
	suite.Runs = make([]*CircuitRun, len(profs))
	errs := make([]error, len(profs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, prof := range profs {
		wg.Add(1)
		go func(i int, prof bench.Profile) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run, err := runCircuit(ctx, &cfg, eng, lib, prof, overheads)
			if err != nil {
				errs[i] = fmt.Errorf("experiments: %s: %w", prof.Name, err)
				return
			}
			suite.Runs[i] = run
		}(i, prof)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return suite, nil
}

// retimeJobs runs the six retiming jobs of one (circuit, overhead) cell,
// one goroutine each, and collects them by index. All six solve
// concurrently when the engine has slots to spare.
func retimeJobs(ctx context.Context, eng *engine.Engine, c *netlist.Circuit, scheme clocking.Scheme, ov float64, method flow.Method, or *OverheadRun) error {
	copt := core.Options{Scheme: scheme, EDLCost: ov, Method: method}
	gateOpt := copt
	gateOpt.TimingModel = sta.ModelGate
	jobs := []engine.Job{
		{Circuit: c, Approach: engine.Base, Options: copt},
		{Circuit: c, Approach: engine.GRAR, Options: copt},
		{Circuit: c, Approach: engine.GRAR, Options: gateOpt},
		{Circuit: c, Approach: engine.NVL, Options: copt, PostSwap: true},
		{Circuit: c, Approach: engine.EVL, Options: copt, PostSwap: true},
		{Circuit: c, Approach: engine.RVL, Options: copt, PostSwap: true},
	}
	outs := make([]*engine.Outcome, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job engine.Job) {
			defer wg.Done()
			outs[i], errs[i] = eng.Do(ctx, job)
		}(i, job)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	or.Base = outs[0].Core
	or.GRARPath = outs[1].Core
	or.GRARGate = outs[2].Core
	or.NVL = outs[3].VLib
	or.EVL = outs[4].VLib
	or.RVL = outs[5].VLib
	return nil
}

func runCircuit(ctx context.Context, cfg *Config, eng *engine.Engine, lib *cell.Library, prof bench.Profile, overheads []float64) (*CircuitRun, error) {
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep cancelled before %s: %w", prof.Name, err)
	}
	sp, ctx := obs.StartSpan(ctx, "experiments.circuit")
	defer sp.End()
	sp.Attr("bench", prof.Name)
	seq, err := prof.BuildSeq(lib)
	if err != nil {
		return nil, err
	}
	c, scheme, err := prof.CutAndCalibrate(seq)
	if err != nil {
		return nil, err
	}
	run := &CircuitRun{
		Profile:    prof,
		Seq:        seq,
		Circuit:    c,
		Scheme:     scheme,
		ByOverhead: make(map[float64]*OverheadRun),
	}
	run.FlopAreaDesign = float64(prof.Flops)*lib.FF.Area + c.CombArea()
	run.InitialED = bench.MeasureInitialED(c, scheme)
	run.GenRuntime = time.Since(t0)
	cfg.logger().Info("generated", "bench", prof.Name, "gates", c.GateCount(), "nce", run.InitialED)

	tm := sta.Analyze(c, sta.DefaultOptions(lib))
	cycles := cfg.simCycles(c.GateCount())

	for _, ov := range overheads {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sweep cancelled before %s c=%g: %w", prof.Name, ov, err)
		}
		or := &OverheadRun{C: ov}
		if err := retimeJobs(ctx, eng, c, scheme, ov, cfg.Method, or); err != nil {
			return nil, err
		}

		vopt := vlib.Options{Scheme: scheme, EDLCost: ov, Method: cfg.Method, PostSwap: true}
		trials := cfg.MovableTrials
		if trials <= 0 {
			trials = 24
			if c.GateCount() > 5000 {
				trials = 8
			}
		}
		if or.Movable, err = vlib.RetimeMovableMasterCtx(ctx, seq, scheme, vopt, trials); err != nil {
			return nil, err
		}

		if or.GRARPath.EDCount > 0 {
			reclaimed, comp, err := core.ReclaimBySizing(ctx, or.GRARPath, 0)
			if err != nil {
				return nil, err
			}
			or.GReclaim = reclaimed
			or.ReclaimUpsized = comp.Upsized
		} else {
			or.GReclaim = or.GRARPath
		}

		simCfg := sim.Config{Scheme: scheme, Latch: lib.BaseLatch, Cycles: cycles, Seed: prof.Seed}
		if or.ErrBase, err = sim.ErrorRateCtx(ctx, tm, or.Base.Placement, or.Base.EDMasters, simCfg); err != nil {
			return nil, err
		}
		// The RVL run may have resized gates; simulate on its circuit.
		rvlTm := sta.Analyze(or.RVL.Circuit, sta.DefaultOptions(lib))
		if or.ErrRVL, err = sim.ErrorRateCtx(ctx, rvlTm, or.RVL.Placement, or.RVL.EDMasters, simCfg); err != nil {
			return nil, err
		}
		if or.ErrG, err = sim.ErrorRateCtx(ctx, tm, or.GRARPath.Placement, or.GRARPath.EDMasters, simCfg); err != nil {
			return nil, err
		}
		reclaimTm := tm
		if or.GReclaim != or.GRARPath {
			reclaimTm = sta.Analyze(or.GReclaim.Circuit, sta.DefaultOptions(lib))
		}
		if or.ErrGReclaim, err = sim.ErrorRateCtx(ctx, reclaimTm, or.GReclaim.Placement, or.GReclaim.EDMasters, simCfg); err != nil {
			return nil, err
		}

		run.ByOverhead[ov] = or
		cfg.logger().Info("overhead swept", "bench", prof.Name, "c", ov,
			"base_area", or.Base.TotalArea, "grar_area", or.GRARPath.TotalArea, "rvl_area", or.RVL.TotalArea)
	}
	return run, nil
}

// Overheads returns the sweep values actually run, in order.
func (s *Suite) Overheads() []float64 {
	if s.Config.Overheads != nil {
		return s.Config.Overheads
	}
	return Overheads
}
