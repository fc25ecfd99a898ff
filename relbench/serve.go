package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"relatch/internal/cell"
	"relatch/internal/engine"
	"relatch/internal/obs"
	"relatch/internal/queue"
	"relatch/internal/verilog"
)

// serve-mixed settings. Set-up first brings the server's journal past
// its compaction budget (see fillJournal). From then on every journal
// append rewrites the retained payloads: at the default seed on a 2-vCPU
// Xeon a submit round trip takes about 50 ms and lease-to-done about
// 70 ms, so one worker sustains about 8 jobs/s of this mix. The rate is
// under half of that, so latency measures service, not a growing
// backlog.
const (
	serveRate = 3.0 // requests per second
	// serveWarmAge is how old a payload must be before a warm request
	// resubmits it, so its cold solve has finished and the resubmission
	// is a cache hit.
	serveWarmAge = 2 * time.Second
	// serveColdLimitMS is the latency limit goodput_rps counts against,
	// sized from the default seed's cold_ms.p95 (about 200 ms).
	serveColdLimitMS = 1000.0
	// serveCircuitsPerProfile seeded variants of each profile make up
	// the circuit pool the payloads draw from.
	serveCircuitsPerProfile = 2
	// serveReplayPayloads distinct payloads are replayed in process by a
	// traced run.
	serveReplayPayloads = 30
)

// serveSetupReps is how many times a serve-mixed run repeats its set-up
// (each fills a fresh server's journal); setup_s is the median.
const serveSetupReps = 3

var serveProfiles = []string{"s1196", "s1238", "s1423", "s1488", "s5378"}

// servePayload is one distinct request body: a generated circuit's
// Verilog text under one approach and overhead c.
type servePayload struct {
	Name string
	Req  engine.JobRequest
	Body []byte
}

// serveSchedule is the generated request stream of one run.
type serveSchedule struct {
	payloads []servePayload
	reqs     []request
	// filler is the payload set-up resubmits to bring the server's
	// journal past its compaction budget.
	filler []byte
}

// journalBudget is the queue's default segment size (queue.Config
// MaxSegmentBytes); past it the journal compacts.
const journalBudget = 4 << 20

// buildServeSchedule generates the circuit pool, emits it as Verilog and
// lays out n requests at serveRate: every other request resubmits
// an earlier payload (warm) once one is old enough, and the rest carry a
// new payload (cold) with a distinct content address.
func buildServeSchedule(seed int64, n int) (*serveSchedule, error) {
	r := workloadRand(serveMixed, seed)
	type circuit struct {
		label string
		text  string
	}
	var pool []circuit
	for _, name := range serveProfiles {
		for k := 0; k < serveCircuitsPerProfile; k++ {
			in := inputSpec{Profile: name, Seed: drawSeed(r), C: 1}
			seq, _, err := in.buildSeq()
			if err != nil {
				return nil, err
			}
			var b strings.Builder
			if err := verilog.Write(&b, seq); err != nil {
				return nil, fmt.Errorf("relbench: emitting %s: %w", in.label(), err)
			}
			pool = append(pool, circuit{label: in.label(), text: b.String()})
		}
	}
	sch := &serveSchedule{}
	used := make(map[string]bool)
	// The filler is the largest circuit of the pool (the last profile).
	fc := drawC(r)
	filler := pool[len(pool)-1]
	used[fmt.Sprintf("%s/%s/c=%.2f", filler.label, "base", fc)] = true
	fb, err := json.Marshal(engine.JobRequest{Verilog: filler.text, Approach: "base", C: &fc})
	if err != nil {
		return nil, err
	}
	sch.filler = fb
	// New payloads cycle through the pool and alternate approaches, so
	// every circuit carries the same share of the cold work; only c is
	// drawn per payload.
	newPayload := func() (int, error) {
		for {
			k := len(sch.payloads)
			c := pool[k%len(pool)]
			ap := []string{"grar", "base"}[(k/len(pool))%2]
			oc := drawC(r)
			name := fmt.Sprintf("%s/%s/c=%.2f", c.label, ap, oc)
			if used[name] {
				continue
			}
			used[name] = true
			req := engine.JobRequest{Verilog: c.text, Approach: ap, C: &oc}
			body, err := json.Marshal(req)
			if err != nil {
				return 0, err
			}
			sch.payloads = append(sch.payloads, servePayload{Name: name, Req: req, Body: body})
			return len(sch.payloads) - 1, nil
		}
	}
	// Odd requests are warm once a payload is old enough; the rest are
	// cold.
	firstUse := make([]int, 0, n) // request index of each payload's cold submission
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / serveRate * float64(time.Second))
		eligible := 0
		for eligible < len(firstUse) && sch.reqs[firstUse[eligible]].Due <= due-serveWarmAge {
			eligible++
		}
		if i%2 == 1 && eligible > 0 {
			ref := r.Intn(eligible)
			sch.reqs = append(sch.reqs, request{Body: sch.payloads[ref].Body, Due: due, Warm: true, Ref: ref})
			continue
		}
		ref, err := newPayload()
		if err != nil {
			return nil, err
		}
		firstUse = append(firstUse, i)
		sch.reqs = append(sch.reqs, request{Body: sch.payloads[ref].Body, Due: due, Ref: ref})
	}
	return sch, nil
}

// serverProc is a rar -serve subprocess with its own journal and cache
// directories.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// startServer starts rar -serve with one worker on a free loopback port
// and waits until /readyz answers.
func startServer(rar, dir string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(rar, "-serve", addr, "-j", "1",
		"-queue-dir", filepath.Join(dir, "queue"), "-cache-dir", filepath.Join(dir, "cache"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("relbench: starting %s: %w", rar, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("relbench: server on %s not ready after 30s (see %s)", addr, logf.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop interrupts the server, waits for it to exit (killing it after
// 10 s) and closes its log.
func (s *serverProc) stop() {
	s.cmd.Process.Signal(syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	s.log.Close()
}

// fillJournal brings a fresh server to the state a server that has been
// up for a while is in: it resubmits one payload until more than the
// journal's compaction budget of payload bytes is journaled, then waits
// until the last of those jobs is done. Submissions the server answers
// synchronously from its cache journal nothing and are not counted.
func fillJournal(ctx context.Context, base string, body []byte) error {
	c := &http.Client{}
	defer c.CloseIdleConnections()
	var (
		journaled int
		last      string
	)
	for journaled <= journalBudget+len(body) {
		status, id, _, err := submit(ctx, c, base, body)
		if err != nil {
			return fmt.Errorf("relbench: filling the journal: %w", err)
		}
		if status == http.StatusAccepted {
			journaled += len(body)
			last = id
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(base + "/jobs/" + last)
		if err != nil {
			return err
		}
		var st struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch st.Status {
		case "done":
			return nil
		case "dead":
			return fmt.Errorf("relbench: filler job %s died", last)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("relbench: filler job %s not done after 60s", last)
}

// scrapeMetrics reads the server's /metrics samples into a map keyed by
// the full series name (labels included).
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// runServe runs serve-mixed: an open loop at serveRate against a
// rar -serve subprocess, half cold and half warm requests.
func runServe(ctx context.Context, cfg runConfig) (*result, *tally, error) {
	dir, err := runDir(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	n := int(math.Round(cfg.seconds * serveRate))

	var (
		sch    *serveSchedule
		srv    *serverProc
		setups []float64
		builds []float64 // input generation and Verilog emission, ms
	)
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		sch = nil
		runtime.GC()
		sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if sch, err = buildServeSchedule(cfg.seed, n); err != nil {
			return nil, nil, err
		}
		builds = append(builds, ms(time.Since(start)))
		if srv, err = startServer(cfg.rar, sdir); err != nil {
			return nil, nil, err
		}
		if err := fillJournal(ctx, srv.base, sch.filler); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()

	before, err := scrapeMetrics(srv.base)
	if err != nil {
		return nil, nil, err
	}
	// Jobs still unfinished a minute after the last send count as lost.
	loadCtx, cancel := context.WithTimeout(ctx, time.Duration((cfg.seconds+60)*float64(time.Second)))
	defer cancel()
	start := time.Now().Add(50 * time.Millisecond)
	samples := runOpenLoop(loadCtx, srv.base, sch.reqs, start)
	after, err := scrapeMetrics(srv.base)
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, nil, err
	}
	srv.stop()
	srv = nil

	gold, err := goldenFor(serveMixed, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	vals := make(map[string]float64)
	var (
		cold, warm, submitMS, waitMS, solveMS, certMS []float64
		good, completed                               int
		lastDone                                      int64
		lag                                           time.Duration
		first                                         = make(map[int]*jobSummary) // payload → cold result
	)
	for i := range samples {
		s, r := &samples[i], sch.reqs[i]
		name := sch.payloads[r.Ref].Name
		if !s.Sent.IsZero() {
			if l := s.Sent.Sub(s.Due); l > lag {
				lag = l
			}
			submitMS = append(submitMS, ms(s.SubmitRTT))
		}
		if err := checkSample(s, name); err != nil {
			t.fail(err)
			continue
		}
		t.ok()
		lat, _ := s.LatencyMS()
		completed++
		if lat <= serveColdLimitMS {
			good++
		}
		if at := s.Stages["done"]; at > lastDone {
			lastDone = at
		}
		if v, ok := s.stageMS("queued", "leased"); ok {
			waitMS = append(waitMS, v)
		}
		cols := columns{Slaves: s.Result.Slaves, Masters: s.Result.Masters, ED: s.Result.ED,
			SeqArea: s.Result.SeqArea, TotalArea: s.Result.TotalArea}
		if r.Warm {
			warm = append(warm, lat)
			if c := first[r.Ref]; c != nil && *c != *s.Result {
				t.mismatch(fmt.Errorf("%s: warm result %+v differs from its cold result %+v", name, *s.Result, *c))
			}
			continue
		}
		cold = append(cold, lat)
		first[r.Ref] = s.Result
		if v, ok := s.stageMS("solving", "certifying"); ok {
			solveMS = append(solveMS, v)
		}
		if v, ok := s.stageMS("certifying", "done"); ok {
			certMS = append(certMS, v)
		}
		cols.Pivots = s.Pivots
		if _, covered := gold[name]; covered {
			if err := checkGolden(gold, name, cols); err != nil {
				t.mismatch(err)
			}
		}
	}
	var area float64
	for ref := range sch.payloads {
		if res := first[ref]; res != nil {
			area += res.SeqArea
		}
	}
	span := float64(lastDone-start.UnixNano()) / 1e9
	if span <= 0 {
		span = cfg.seconds
	}

	if cfg.trace {
		vals["bench.build_ms"] = median(builds)
		vals["http.submit_ms.p50"] = percentile(submitMS, 50)
		vals["http.submit_ms.p95"] = percentile(submitMS, 95)
		vals["sse.queue_wait_ms.p50"] = percentile(waitMS, 50)
		vals["sse.solve_ms.p50"] = percentile(solveMS, 50)
		vals["sse.certify_ms.p50"] = percentile(certMS, 50)
		vals["loadgen.sched_lag_ms.max"] = ms(lag)
		delta := func(k string) float64 { return after[k] - before[k] }
		hits := delta(`relatch_engine_cache_total{event="hit"}`) + delta(`relatch_engine_cache_total{event="disk_hit"}`) +
			delta(`relatch_engine_cache_total{event="peer_hit"}`)
		if lookups := hits + delta(`relatch_engine_cache_total{event="miss"}`); lookups > 0 {
			vals["engine.cache_hit_ratio"] = hits / lookups
		}
		vals["queue.retries"] = delta("relatch_queue_retries_total")
		vals["queue.dead"] = delta("relatch_queue_dead_total")
		vals["server.shed"] = delta(`relatch_queue_jobs_total{event="shed"}`)
		replay := sch.payloads
		if len(replay) > serveReplayPayloads {
			replay = replay[:serveReplayPayloads]
		}
		if err := replayPayloads(ctx, dir, replay, t, vals); err != nil {
			return nil, nil, err
		}
		vals["error_rate"] = t.errorRate()
		res, err := newResult(true, vals)
		return res, t, err
	}

	vals["setup_s"] = median(setups)
	vals["jobs_per_s"] = float64(completed) / span
	vals["peak_rss_mb"] = rss
	vals["seq_area_total"] = area
	vals["success_rate"] = 1 - t.errorRate()
	vals["cold_ms.p50"] = percentile(cold, 50)
	vals["cold_ms.p95"] = percentile(cold, 95)
	vals["warm_ms.p50"] = percentile(warm, 50)
	vals["warm_ms.p95"] = percentile(warm, 95)
	vals["goodput_rps"] = float64(good) / span
	var svcCold, svcWarm []float64
	sync := 0
	for i := range samples {
		v, ok := samples[i].stageMS("leased", "done")
		switch {
		case samples[i].Status == http.StatusOK:
			sync++
		case !ok:
		case sch.reqs[i].Warm:
			svcWarm = append(svcWarm, v)
		default:
			svcCold = append(svcCold, v)
		}
	}
	logger.Info("serve-mixed", "requests", len(samples), "cold", len(cold), "warm", len(warm),
		"synchronous", sync, "span_s", span, "max_lag_ms", ms(lag))
	logger.Info("serve-mixed service (leased to done)", "cold_mean_ms", mean(svcCold), "cold_p50_ms", median(svcCold),
		"warm_mean_ms", mean(svcWarm), "warm_p50_ms", median(svcWarm))
	res, err := newResult(false, vals)
	return res, t, err
}

// checkSample reports why a request did not end as a certified,
// stamped completion: transport error, shed, dead, lost terminal event
// or uncertified result.
func checkSample(s *sample, name string) error {
	switch {
	case s.Status == http.StatusTooManyRequests:
		return fmt.Errorf("%s: shed (HTTP 429)", name)
	case s.Err != nil:
		return fmt.Errorf("%s: %w", name, s.Err)
	case s.Final != "done":
		return fmt.Errorf("%s: job %s ended %q", name, s.ID, s.Final)
	case s.Stages["done"] == 0:
		return fmt.Errorf("%s: job %s: no stamped done event", name, s.ID)
	case s.Result == nil || !s.Result.Certified:
		return fmt.Errorf("%s: job %s: result not certified", name, s.ID)
	}
	return nil
}

// replayPayloads replays job requests in process, timing the public
// calls a submission and a warm hit go through: verilog.ParseString,
// engine.BuildJob, Job.Key, queue.Queue.Enqueue (one journal append with
// fsync) and Cache.Get on a warm key (restore plus certification). It
// reports the per-call medians.
func replayPayloads(ctx context.Context, dir string, payloads []servePayload, t *tally, vals map[string]float64) error {
	qdir := filepath.Join(dir, "replay-queue")
	cdir := filepath.Join(dir, "replay-cache")
	q, err := queue.Open(queue.Config{Dir: qdir, Capacity: 1 << 16})
	if err != nil {
		return err
	}
	defer q.Close()
	cache, err := engine.NewCache(0, cdir)
	if err != nil {
		return err
	}
	eng := engine.New(engine.Config{Workers: 1, Cache: cache})
	defer eng.Close()

	var parse, build, key, enqueue, get []float64
	for _, p := range payloads {
		start := time.Now()
		_, err := verilog.ParseString(p.Req.Verilog, cell.Default(*p.Req.C))
		parse = append(parse, ms(time.Since(start)))
		if err != nil {
			t.fail(fmt.Errorf("%s: parse: %w", p.Name, err))
			continue
		}
		start = time.Now()
		job, err := engine.BuildJob(p.Req)
		build = append(build, ms(time.Since(start)))
		if err != nil {
			t.fail(fmt.Errorf("%s: BuildJob: %w", p.Name, err))
			continue
		}
		start = time.Now()
		k, err := job.Key()
		key = append(key, ms(time.Since(start)))
		if err != nil {
			t.fail(fmt.Errorf("%s: Key: %w", p.Name, err))
			continue
		}
		start = time.Now()
		_, err = q.Enqueue(k.String(), p.Body)
		enqueue = append(enqueue, ms(time.Since(start)))
		if err != nil {
			t.fail(fmt.Errorf("%s: Enqueue: %w", p.Name, err))
			continue
		}
		out, err := eng.Do(ctx, job)
		if err != nil {
			t.fail(fmt.Errorf("%s: solve: %w", p.Name, err))
			continue
		}
		// A fresh cache over the same directory misses in memory, so Get
		// takes the disk path a warm hit after a restart takes.
		fresh, err := engine.NewCache(0, cdir)
		if err != nil {
			return err
		}
		start = time.Now()
		hit, ok := fresh.Get(ctx, k, job)
		get = append(get, ms(time.Since(start)))
		switch {
		case !ok:
			t.fail(fmt.Errorf("%s: warm Cache.Get missed", p.Name))
		case hit.Summary().SeqArea != out.Summary().SeqArea || !hit.Summary().Certified:
			t.fail(fmt.Errorf("%s: warm Cache.Get returned %+v, solve gave %+v", p.Name, hit.Summary(), out.Summary()))
		default:
			t.ok()
		}
	}
	vals["verilog.parse_ms"] = median(parse)
	vals["engine.buildjob_ms"] = median(build)
	vals["engine.key_ms"] = median(key)
	vals["engine.cache_get_ms"] = median(get)
	vals["queue.enqueue_ms"] = median(enqueue)
	return nil
}

// serveGoldenRows computes the golden columns of every distinct cold
// payload of serve-mixed for a seed, in process through the engine with
// an obs tracer so the pivot count is filled.
func serveGoldenRows(ctx context.Context, seed int64) (map[string]columns, error) {
	sch, err := buildServeSchedule(seed, int(math.Round(goldenServeSeconds*serveRate)))
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{Workers: 1})
	defer eng.Close()
	rows := make(map[string]columns)
	for _, p := range sch.payloads {
		job, err := engine.BuildJob(p.Req)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		tr := obs.New("golden")
		out, err := eng.Do(obs.WithTracer(ctx, tr), job)
		tr.Finish()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		if !out.Summary().Certified {
			return nil, errors.New(p.Name + ": not certified")
		}
		s := out.Summary()
		rows[p.Name] = columns{Slaves: s.Slaves, Masters: s.Masters, ED: s.ED, SeqArea: s.SeqArea,
			TotalArea: s.TotalArea, Pivots: tr.Report().Sum("flow.simplex", "pivots")}
	}
	return rows, nil
}

// goldenServeSeconds is the run length the serve-mixed golden reference
// covers; payloads of longer runs are checked for consistency only.
const goldenServeSeconds = 60
