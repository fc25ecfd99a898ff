package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// doAll runs every job through Do on its own goroutine and returns the
// outcomes and errors by job index.
func doAll(eng *Engine, jobs []Job) ([]*Outcome, []error) {
	outs := make([]*Outcome, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job Job) {
			defer wg.Done()
			outs[i], errs[i] = eng.Do(context.Background(), job)
		}(i, job)
	}
	wg.Wait()
	return outs, errs
}

func TestSingleflightDeduplicates(t *testing.T) {
	release := make(chan struct{})
	var solves atomic.Int64
	eng := New(Config{
		Workers: 4,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			solves.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &Outcome{Approach: job.Approach}, nil
		},
	})
	defer eng.Close()

	job := testJob(t, GRAR)
	const n = 8
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = job
	}
	var outs []*Outcome
	var errs []error
	done := make(chan struct{})
	go func() {
		outs, errs = doAll(eng, jobs)
		close(done)
	}()
	// Hold the leader until every other call has joined it, so the dedup
	// path is exercised deterministically.
	waitFor(t, "followers to join", func() bool { return eng.Stats().Deduplicated == n-1 })
	close(release)
	<-done

	shared := 0
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if out.Shared {
			shared++
		}
	}
	if got := solves.Load(); got != 1 {
		t.Errorf("%d solves for %d identical submissions, want 1", got, n)
	}
	if shared != n-1 {
		t.Errorf("%d shared outcomes, want %d", shared, n-1)
	}
	st := eng.Stats()
	if st.Submitted != n || st.Completed != n || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWorkerPanicBecomesJobError(t *testing.T) {
	var calls atomic.Int64
	eng := New(Config{
		Workers: 1,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			if calls.Add(1) == 1 {
				panic("solver exploded")
			}
			return &Outcome{Approach: job.Approach}, nil
		},
	})
	defer eng.Close()

	_, err := eng.Do(context.Background(), testJob(t, GRAR))
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "solver exploded") {
		t.Fatalf("panic surfaced as %v", err)
	}
	if st := eng.Stats(); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
	// The worker survived: the engine keeps serving after a panic.
	if _, err := eng.Do(context.Background(), testJob(t, GRAR)); err != nil {
		t.Fatalf("engine dead after panic: %v", err)
	}
}

func TestJobTimeoutBoundsSolve(t *testing.T) {
	block := func(ctx context.Context, job Job) (*Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	eng := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond, SolveOverride: block})
	defer eng.Close()

	if _, err := eng.Do(context.Background(), testJob(t, GRAR)); !IsClosed(err) {
		t.Fatalf("engine-default timeout: got %v", err)
	}
	// A per-job timeout overrides the engine default.
	job := testJob(t, Base)
	job.Timeout = 10 * time.Millisecond
	start := time.Now()
	if _, err := eng.Do(context.Background(), job); !IsClosed(err) {
		t.Fatalf("per-job timeout: got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("per-job timeout did not bound the solve")
	}
}

func TestCloseCancelsQueuedJobs(t *testing.T) {
	started := make(chan struct{}, 8)
	eng := New(Config{
		Workers: 1,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})

	costs := []float64{1.0, 1.5, 2.0}
	jobs := make([]Job, len(costs))
	for i, c := range costs {
		jobs[i] = testJob(t, GRAR)
		jobs[i].Options.EDLCost = c // three distinct keys, one worker slot
	}
	done := make(chan []error)
	go func() {
		_, errs := doAll(eng, jobs)
		done <- errs
	}()
	<-started // one job running, two queued on the semaphore
	waitFor(t, "every call to enter the engine", func() bool { return eng.Stats().Submitted == int64(len(jobs)) })
	eng.Close()
	errs := <-done

	for i, err := range errs {
		if !IsClosed(err) {
			t.Errorf("job %d: close surfaced as %v", i, err)
		}
	}
	if _, err := eng.Do(context.Background(), testJob(t, GRAR)); !errors.Is(err, ErrClosed) {
		t.Errorf("Do after Close: got %v, want ErrClosed", err)
	}
}

func TestDoRejectsBadJobs(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	if _, err := eng.Do(context.Background(), Job{Approach: GRAR}); err == nil {
		t.Error("nil-circuit job accepted")
	}
	if st := eng.Stats(); st.Submitted != 0 || st.Failed != 0 {
		t.Errorf("rejected job was counted: %+v", st)
	}
}

func TestStressManyJobsFewKeys(t *testing.T) {
	// 200 submissions over 20 keys on 8 workers, with a memory cache:
	// singleflight covers concurrent duplicates, the cache covers later
	// ones, so each key is solved exactly once. Run under -race this is
	// the engine's concurrency soak.
	cache, err := NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	var solves atomic.Int64
	eng := New(Config{
		Workers: 8,
		Cache:   cache,
		SolveOverride: func(ctx context.Context, job Job) (*Outcome, error) {
			solves.Add(1)
			return &Outcome{Approach: job.Approach}, nil
		},
	})
	defer eng.Close()

	const jobs, keys = 200, 20
	base := testJob(t, GRAR)
	batch := make([]Job, jobs)
	for i := range batch {
		batch[i] = base
		batch[i].Options.EDLCost = 1.0 + float64(i%keys)/100
	}
	_, errs := doAll(eng, batch)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := solves.Load(); got != keys {
		t.Errorf("%d solves for %d distinct keys", got, keys)
	}
	st := eng.Stats()
	if st.Completed != jobs {
		t.Errorf("completed = %d, want %d", st.Completed, jobs)
	}
	if st.Deduplicated+st.Cache.Hits != jobs-keys {
		t.Errorf("dedup %d + cache hits %d ≠ %d duplicates", st.Deduplicated, st.Cache.Hits, jobs-keys)
	}
}

func TestSolveAllApproaches(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	for _, ap := range []Approach{GRAR, Base, NVL, EVL, RVL} {
		out, err := eng.Do(context.Background(), testJob(t, ap))
		if err != nil {
			t.Fatalf("%s: %v", ap, err)
		}
		sum := out.Summary()
		if !sum.Certified {
			t.Errorf("%s: outcome not certified", ap)
		}
		if sum.Slaves <= 0 || sum.TotalArea <= 0 {
			t.Errorf("%s: degenerate summary %+v", ap, sum)
		}
		if ap.IsVLib() == (out.Core != nil) || ap.IsVLib() != (out.VLib != nil) {
			t.Errorf("%s: wrong result kind", ap)
		}
	}
}

// stripVolatile zeroes the fields that legitimately vary between
// otherwise identical runs (provenance, not work content).
func stripVolatile(s Summary) Summary {
	s.CacheHit = false
	s.CacheLayer = ""
	return s
}

func TestParallelMatchesSerial(t *testing.T) {
	approaches := []Approach{GRAR, Base, NVL, EVL, RVL}
	sweep := func(workers int) []Summary {
		eng := New(Config{Workers: workers})
		defer eng.Close()
		jobs := make([]Job, 0, 2*len(approaches))
		for _, cost := range []float64{1.0, 2.0} {
			for _, ap := range approaches {
				job := testJob(t, ap)
				job.Options.EDLCost = cost
				jobs = append(jobs, job)
			}
		}
		outs, errs := doAll(eng, jobs)
		out := make([]Summary, 0, len(jobs))
		for i, o := range outs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			out = append(out, stripVolatile(o.Summary()))
		}
		return out
	}

	serial := sweep(1)
	parallel := sweep(8)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs:\n serial  %+v\n parallel %+v", i, serial[i], parallel[i])
		}
	}
}
