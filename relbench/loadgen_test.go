package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeServer answers POST /jobs with a job that is done the moment it is
// accepted, and streams that job's done stamp over SSE. The submission
// numbered stallAt stalls for stall before it is accepted.
func fakeServer(t *testing.T, stallAt int, stall time.Duration) *httptest.Server {
	var (
		mu   sync.Mutex
		n    int
		done = map[string]int64{}
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		i := n
		mu.Unlock()
		if i == stallAt {
			time.Sleep(stall)
		}
		id := fmt.Sprintf("f-%d", i)
		mu.Lock()
		done[id] = time.Now().UnixNano()
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"status":"queued"}`, id)
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		at := done[r.PathValue("id")]
		mu.Unlock()
		fmt.Fprintf(w, "id: 1\nevent: stage\ndata: {\"stage\":\"done\",\"at_ns\":%d}\n\nevent: end\ndata: {\"stage\":\"done\"}\n\n", at)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"done","result":{"slaves":1,"certified":true}}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestOpenLoopChargesStall: one submission stalls the server; every
// request due during the stall is timed from its scheduled send time, so
// the stall counts against each of them and the nearest-rank percentiles
// over the raw samples show it.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		n        = 40
		interval = 10 * time.Millisecond
		stallAt  = 10
		stall    = 200 * time.Millisecond
	)
	srv := fakeServer(t, stallAt, stall)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{Body: []byte(`{}`), Due: time.Duration(i) * interval}
	}
	start := time.Now().Add(20 * time.Millisecond)
	samples := runOpenLoop(context.Background(), srv.URL, reqs, start)

	stallStart := time.Duration(stallAt-1) * interval
	var lat []float64
	for i := range samples {
		s := &samples[i]
		if err := checkSample(s, fmt.Sprint(i)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		l, _ := s.LatencyMS()
		lat = append(lat, l)
		due := time.Duration(i) * interval
		if due < stallStart || due >= stallStart+stall {
			continue
		}
		// Due while the stall lasted: waits out the rest of it.
		if want := ms(stallStart + stall - due); l < want {
			t.Errorf("request %d due %v into the run: latency %.1fms, want ≥ %.1fms (rest of the stall)", i, due, l, want)
		}
	}
	// A fifth of the requests were due during the stall, so the 95th
	// percentile carries most of it and the median none of it.
	if p95 := percentile(lat, 95); p95 < ms(stall)/2 {
		t.Errorf("p95 = %.1fms, want ≥ %.1fms", p95, ms(stall)/2)
	}
	if p50 := percentile(lat, 50); p50 > ms(stall)/2 {
		t.Errorf("p50 = %.1fms, want < %.1fms", p50, ms(stall)/2)
	}
}
