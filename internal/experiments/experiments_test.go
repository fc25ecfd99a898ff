package experiments

import (
	"context"
	"strings"
	"testing"
)

// smallSuite runs the full pipeline on the two smallest benchmarks at a
// single overhead; the full sweep lives in cmd/paper and the benchmarks.
func smallSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := RunCtx(context.Background(), Config{
		Profiles:      []string{"s1196", "s1488"},
		Overheads:     []float64{1.0},
		SimCycles:     200,
		MovableTrials: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSuiteRuns(t *testing.T) {
	s := smallSuite(t)
	if len(s.Runs) != 2 {
		t.Fatalf("runs = %d", len(s.Runs))
	}
	for _, r := range s.Runs {
		or := r.ByOverhead[1.0]
		if or == nil {
			t.Fatal("missing overhead run")
		}
		// The central inequality chain of the paper, on the model
		// objective: G-RAR's sequential cost never exceeds base's.
		if or.GRARPath.SeqArea > or.Base.SeqArea+1e-9 {
			t.Errorf("%s: G-RAR seq area %g > base %g", r.Profile.Name, or.GRARPath.SeqArea, or.Base.SeqArea)
		}
		// Simulation soundness.
		for name, st := range map[string]interface {
			missed() int
		}{} {
			_ = name
			_ = st
		}
		if or.ErrBase.MissedViolations+or.ErrG.MissedViolations+or.ErrRVL.MissedViolations != 0 {
			t.Error("simulation missed violations")
		}
		if or.ErrBase.HardFailures+or.ErrG.HardFailures+or.ErrRVL.HardFailures != 0 {
			t.Error("simulation hard failures")
		}
	}
}

func TestAllTablesRender(t *testing.T) {
	s := smallSuite(t)
	tables := s.AllTables()
	if len(tables) != 9 {
		t.Fatalf("tables = %d, want 9", len(tables))
	}
	for i, tab := range tables {
		text := tab.String()
		if !strings.Contains(text, "s1196") && i != 0 {
			// Table I includes every circuit too; all tables carry rows.
			t.Errorf("table %d missing circuit rows:\n%s", i+1, text)
		}
		if tab.Markdown() == "" || tab.CSV() == "" {
			t.Errorf("table %d: empty alternate renderings", i+1)
		}
	}
	if sum := s.Summary().String(); !strings.Contains(sum, "Medium") {
		t.Errorf("summary missing overhead row:\n%s", sum)
	}
}

func TestUnknownProfileRejected(t *testing.T) {
	if _, err := RunCtx(context.Background(), Config{Profiles: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestOverheadNames(t *testing.T) {
	if OverheadName(0.5) != "Low" || OverheadName(1.0) != "Medium" || OverheadName(2.0) != "High" {
		t.Error("overhead names wrong")
	}
	if OverheadName(0.75) != "c=0.75" {
		t.Error("custom overhead label wrong")
	}
}

// TestParallelismMatchesSerial is the suite-level determinism contract:
// a parallel sweep must be value-identical to a serial one — jobs solve
// on clones and results are collected in submission order, so the only
// thing Parallelism may change is wall-clock time.
func TestParallelismMatchesSerial(t *testing.T) {
	run := func(par int) *OverheadRun {
		s, err := RunCtx(context.Background(), Config{
			Profiles:      []string{"s1196"},
			Overheads:     []float64{1.0},
			SimCycles:     100,
			MovableTrials: 2,
			Parallelism:   par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Runs[0].ByOverhead[1.0]
	}
	serial := run(1)
	parallel := run(8)

	type row struct {
		slaves, masters, ed int
		seqArea             float64
	}
	rows := func(or *OverheadRun) map[string]row {
		return map[string]row{
			"base":      {or.Base.SlaveCount, or.Base.MasterCount, or.Base.EDCount, or.Base.SeqArea},
			"grar-path": {or.GRARPath.SlaveCount, or.GRARPath.MasterCount, or.GRARPath.EDCount, or.GRARPath.SeqArea},
			"grar-gate": {or.GRARGate.SlaveCount, or.GRARGate.MasterCount, or.GRARGate.EDCount, or.GRARGate.SeqArea},
			"nvl":       {or.NVL.SlaveCount, or.NVL.MasterCount, or.NVL.EDCount, or.NVL.SeqArea},
			"evl":       {or.EVL.SlaveCount, or.EVL.MasterCount, or.EVL.EDCount, or.EVL.SeqArea},
			"rvl":       {or.RVL.SlaveCount, or.RVL.MasterCount, or.RVL.EDCount, or.RVL.SeqArea},
			"greclaim":  {or.GReclaim.SlaveCount, or.GReclaim.MasterCount, or.GReclaim.EDCount, or.GReclaim.SeqArea},
		}
	}
	sr, pr := rows(serial), rows(parallel)
	for name, want := range sr {
		if got := pr[name]; got != want {
			t.Errorf("%s: parallel %+v != serial %+v", name, got, want)
		}
	}
	// The seeded simulation sees identical placements, so its statistics
	// must match too.
	if serial.ErrBase != parallel.ErrBase || serial.ErrG != parallel.ErrG || serial.ErrRVL != parallel.ErrRVL {
		t.Error("simulation statistics diverge between serial and parallel sweeps")
	}
}
