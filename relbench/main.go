// Command relbench is the relatch benchmark. One invocation runs one
// named workload on one workload seed and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with -trace 1 they are the per-layer metrics of a
// separate traced run of the same workload. See README.md for the
// workloads, the metric → layer → workload map and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"relatch/internal/obs"
)

// logger carries progress and failures to standard error; standard
// output is reserved for the host line and the result.
var logger = obs.NewLogger(os.Stderr, slog.LevelInfo)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units; every untraced
// run reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"seq_area_total", "area"},
	{"success_rate", "ratio"},
	{"cold_ms.p50", "ms"},
	{"cold_ms.p95", "ms"},
	{"warm_ms.p50", "ms"},
	{"warm_ms.p95", "ms"},
	{"goodput_rps", "1/s"},
}

// perLayer lists the per-layer metrics and their units; every traced run
// reports all of them, and a layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"bench.build_ms", "ms"},
	{"lint.run_ms", "ms"},
	{"sta.analyze_ms", "ms"},
	{"cert.snapshot_ms", "ms"},
	{"rgraph.build_ms", "ms"},
	{"rgraph.solve_ms", "ms"},
	{"flow.simplex_ms", "ms"},
	{"flow.certify_ms", "ms"},
	{"flow.pivots", "count"},
	{"flow.degenerate_pivots", "count"},
	{"core.evaluate_ms", "ms"},
	{"cert.run_ms", "ms"},
	{"rgraph.build_alloc_mb", "MiB"},
	{"rgraph.solve_alloc_mb", "MiB"},
	{"rgraph.variables", "count"},
	{"rgraph.constraints", "count"},
	{"vlib.retime_ms", "ms"},
	{"vlib.attempts", "count"},
	{"vlib.relaxed", "count"},
	{"vlib.solve_ms", "ms"},
	{"vlib.simplex_ms", "ms"},
	{"vlib.pivots", "count"},
	{"vlib.unattributed_ms", "ms"},
	{"http.submit_ms.p50", "ms"},
	{"http.submit_ms.p95", "ms"},
	{"sse.queue_wait_ms.p50", "ms"},
	{"sse.solve_ms.p50", "ms"},
	{"sse.certify_ms.p50", "ms"},
	{"verilog.parse_ms", "ms"},
	{"engine.buildjob_ms", "ms"},
	{"engine.key_ms", "ms"},
	{"engine.cache_get_ms", "ms"},
	{"queue.enqueue_ms", "ms"},
	{"engine.cache_hit_ratio", "ratio"},
	{"queue.retries", "count"},
	{"queue.dead", "count"},
	{"server.shed", "count"},
	{"loadgen.sched_lag_ms.max", "ms"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"error_rate", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rar      string // rar binary, for serve-mixed
	work     string // scratch directory root, inside the checkout
}

// tally counts attempted and failed operations and keeps the first few
// failure messages for standard error.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, err.Error())
	}
}

// mismatch records a correctness failure of an operation already
// counted as attempted.
func (t *tally) mismatch(err error) {
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, err.Error())
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

func main() {
	var (
		cfg          runConfig
		trace        int
		updateGolden string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.rar, "rar", ".bench_build/rar", "rar binary the serve-mixed workload starts")
	flag.StringVar(&cfg.work, "work", ".bench_build/runs", "scratch directory for server journals and caches")
	flag.StringVar(&updateGolden, "update-golden", "", "recompute the golden reference for the default and held-out seeds into this file, then exit")
	flag.Parse()
	cfg.trace = trace == 1

	if updateGolden != "" {
		if err := writeGolden(context.Background(), updateGolden); err != nil {
			logger.Error("updating the golden reference failed", "err", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		logger.Error("-trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		logger.Error("-seconds must be positive")
		os.Exit(2)
	}
	run, ok := map[string]func(context.Context, runConfig) (*result, *tally, error){
		grarLarge:  runBatch,
		vlRepair:   runBatch,
		serveMixed: runServe,
	}[cfg.workload]
	if !ok {
		logger.Error("unknown workload", "workload", cfg.workload, "want", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	hostLine, _ := json.Marshal(map[string]any{"host": hostFingerprint()})

	res, t, err := run(context.Background(), cfg)
	if err != nil {
		logger.Error("run failed", "workload", cfg.workload, "err", err)
		os.Exit(1)
	}
	for _, m := range t.msgs {
		logger.Error("FAILED", "what", m)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && t.attempted > 0
	fmt.Println(string(hostLine))
	out, err := json.Marshal(res)
	if err != nil {
		logger.Error("encoding the result failed", "err", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// newResult builds a result carrying exactly the metrics the run's mode
// reports: vals supplies the measured values, and a per-layer metric the
// workload does not exercise reads 0.
func newResult(trace bool, vals map[string]float64) (*result, error) {
	list := endToEnd
	if trace {
		list = perLayer
	}
	res := &result{Metrics: make(map[string]metric, len(list))}
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok && !trace {
			return nil, fmt.Errorf("relbench: end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// hostFingerprint stamps the machine and the source a result came from;
// the commit and dirty flag are the ones go build stamped from git.
func hostFingerprint() map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"dirty":      dirty,
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runDir makes a fresh scratch directory for one run under cfg.work.
func runDir(cfg runConfig) (string, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(cfg.work)
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, fmt.Sprintf("%s-%d-", cfg.workload, time.Now().UnixNano()))
}
