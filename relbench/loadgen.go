package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// request is one scheduled submission of the open-loop generator.
type request struct {
	Body []byte        // POST /jobs payload
	Due  time.Duration // send time, as an offset from the schedule start
	Warm bool          // resubmits an earlier payload
	Ref  int           // index of the distinct payload it carries
}

// jobSummary is the result row GET /jobs/{id} reports.
type jobSummary struct {
	Slaves    int     `json:"slaves"`
	Masters   int     `json:"masters"`
	ED        int     `json:"ed"`
	SeqArea   float64 `json:"seq_area"`
	TotalArea float64 `json:"total_area"`
	Certified bool    `json:"certified"`
}

// sample is what the generator observed for one request.
type sample struct {
	Due       time.Time     // scheduled send time
	Sent      time.Time     // actual send time
	SubmitRTT time.Duration // POST round trip
	Status    int           // POST status code (0 = transport error)
	ID        string
	// Stages maps each SSE stage name to the at_ns stamp of its first
	// occurrence (the server's wall clock, Unix ns).
	Stages map[string]int64
	Pivots int64 // sum of the "pivots" progress deltas
	Final  string
	Result *jobSummary
	Err    error
}

// LatencyMS is the time from the scheduled send to the server's stamp
// of the terminal "done" event; ok is false when there is none.
func (s *sample) LatencyMS() (float64, bool) {
	at, ok := s.Stages["done"]
	if !ok {
		return 0, false
	}
	return float64(at-s.Due.UnixNano()) / 1e6, true
}

// stageMS is the gap between two stage stamps, when both exist.
func (s *sample) stageMS(from, to string) (float64, bool) {
	a, okA := s.Stages[from]
	b, okB := s.Stages[to]
	if !okA || !okB {
		return 0, false
	}
	return float64(b-a) / 1e6, true
}

// runOpenLoop submits reqs to base on their schedule from start, over one
// connection, and follows each accepted job's SSE stream to its terminal
// event over a second connection. Every request is timed from its
// scheduled send time, so a stall delays — and is charged to — every
// request due while it lasts. It returns one sample per request, in
// schedule order, after every stream has ended or ctx is done.
func runOpenLoop(ctx context.Context, base string, reqs []request, start time.Time) []sample {
	samples := make([]sample, len(reqs))
	submitC := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	followC := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer submitC.CloseIdleConnections()
	defer followC.CloseIdleConnections()

	// accepted carries the index of each accepted submission to the
	// follower; it is sized to the number of sends so the submitter never
	// blocks on it.
	accepted := make(chan int, len(reqs))
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		var after uint64
		for i := range accepted {
			s := &samples[i]
			first := follow(ctx, followC, base, s, after)
			if first > 0 {
				// Job i+1 was submitted after job i's first event was
				// published, so its stream can resume from there.
				after = first - 1
			}
			fetchResult(ctx, followC, base, s)
		}
	}()

	for i, r := range reqs {
		s := &samples[i]
		s.Due = start.Add(r.Due)
		if wait := time.Until(s.Due); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			s.Err = ctx.Err()
			continue
		}
		s.Sent = time.Now()
		var res *jobSummary
		s.Status, s.ID, res, s.Err = submit(ctx, submitC, base, r.Body)
		s.SubmitRTT = time.Since(s.Sent)
		switch {
		case s.Err != nil:
		case s.Status == http.StatusOK:
			// Served synchronously from the cache (the server's
			// degraded mode while its workers are busy): the response
			// is the terminal event.
			s.Stages = map[string]int64{"done": s.Sent.Add(s.SubmitRTT).UnixNano()}
			s.Final, s.Result = "done", res
		default:
			accepted <- i
		}
	}
	close(accepted)
	<-followed
	return samples
}

// submit POSTs one job. A 202 returns the queued job's ID; a 200 is a
// synchronous answer and returns its result row.
func submit(ctx context.Context, c *http.Client, base string, body []byte) (int, string, *jobSummary, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", nil, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return resp.StatusCode, "", nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var st struct {
		ID     string      `json:"id"`
		Status string      `json:"status"`
		Result *jobSummary `json:"result"`
	}
	if err := json.Unmarshal(raw, &st); err != nil || st.ID == "" {
		return resp.StatusCode, "", nil, fmt.Errorf("submit: no job id in %q", raw)
	}
	if resp.StatusCode == http.StatusOK && (st.Status != "done" || st.Result == nil) {
		return resp.StatusCode, st.ID, nil, fmt.Errorf("submit: HTTP 200 without a finished result: %q", raw)
	}
	return resp.StatusCode, st.ID, st.Result, nil
}

// follow reads the job's SSE stream, resuming after sequence number
// after, until its end event, recording stage stamps and pivot progress.
// It returns the sequence number of the first event of the job it saw.
func follow(ctx context.Context, c *http.Client, base string, s *sample, after uint64) uint64 {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+s.ID+"/events", nil)
	if err != nil {
		s.Err = err
		return 0
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(after))
	}
	resp, err := c.Do(req)
	if err != nil {
		s.Err = fmt.Errorf("events %s: %w", s.ID, err)
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.Err = fmt.Errorf("events %s: HTTP %d", s.ID, resp.StatusCode)
		return 0
	}
	s.Stages = make(map[string]int64)
	var (
		first uint64
		id    uint64
		event string
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscan(line[4:], &id)
		case strings.HasPrefix(line, "event: "):
			event = line[7:]
		case strings.HasPrefix(line, "data: "):
			var d struct {
				Stage   string `json:"stage"`
				Counter string `json:"counter"`
				Delta   int64  `json:"delta"`
				AtNS    int64  `json:"at_ns"`
			}
			if err := json.Unmarshal([]byte(line[6:]), &d); err != nil {
				s.Err = fmt.Errorf("events %s: %w", s.ID, err)
				return first
			}
			if first == 0 && id > 0 {
				first = id
			}
			switch event {
			case "stage":
				if _, seen := s.Stages[d.Stage]; !seen && d.AtNS > 0 {
					s.Stages[d.Stage] = d.AtNS
				}
			case "progress":
				if d.Counter == "pivots" {
					s.Pivots += d.Delta
				}
			case "end":
				s.Final = d.Stage
				return first
			}
		case line == "":
			id, event = 0, ""
		}
	}
	s.Err = fmt.Errorf("events %s: stream ended without an end event", s.ID)
	return first
}

// fetchResult reads the finished job's status and result row.
func fetchResult(ctx context.Context, c *http.Client, base string, s *sample) {
	if s.Final != "done" {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+s.ID, nil)
	if err != nil {
		s.Err = err
		return
	}
	resp, err := c.Do(req)
	if err != nil {
		s.Err = fmt.Errorf("status %s: %w", s.ID, err)
		return
	}
	defer resp.Body.Close()
	var st struct {
		Status string      `json:"status"`
		Result *jobSummary `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		s.Err = fmt.Errorf("status %s: %w", s.ID, err)
		return
	}
	if st.Status != "done" {
		s.Err = fmt.Errorf("status %s: %q after a done event", s.ID, st.Status)
		return
	}
	s.Result = st.Result
}
