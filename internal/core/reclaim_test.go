package core

import (
	"context"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
)

// TestReclaimBySizing reproduces the closing observation of Section VI-D:
// speeding up the combinational logic with a size-only compile reclaims
// error-detecting masters that retiming alone could not, at a modest
// combinational-area cost.
func TestReclaimBySizing(t *testing.T) {
	lib := cell.Default(1.0)
	// s1196 carries stuck endpoints (combinational paths past Π), the
	// case only sizing can fix.
	prof, _ := bench.ProfileByName("s1196")
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Retime(c, Options{Scheme: scheme, EDLCost: 1}, ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	if res.EDCount == 0 {
		t.Skip("no error-detecting masters left to reclaim")
	}
	reclaimed, comp, err := ReclaimBySizing(context.Background(), res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed.EDCount > res.EDCount {
		t.Errorf("sizing increased EDL: %d -> %d", res.EDCount, reclaimed.EDCount)
	}
	if comp.Upsized > 0 && reclaimed.Circuit.CombArea() <= res.Circuit.CombArea() {
		t.Error("upsizing must grow combinational area")
	}
	// The original result must be untouched (clone semantics).
	if res.Circuit.CombArea() != c.CombArea() {
		t.Error("reclaim mutated the input circuit")
	}
	if reclaimed.EDCount < res.EDCount {
		t.Logf("reclaimed %d of %d EDL masters for +%.1f%% combinational area",
			res.EDCount-reclaimed.EDCount, res.EDCount,
			100*(reclaimed.Circuit.CombArea()-c.CombArea())/c.CombArea())
	}
	// Placement unchanged and still legal on the resized circuit.
	if err := reclaimed.Placement.Validate(reclaimed.Circuit); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimNoOpWhenClean: on a circuit G-RAR already cleared, the
// reclaim pass must change nothing.
func TestReclaimNoOpWhenClean(t *testing.T) {
	lib := cell.Default(1.0)
	prof, _ := bench.ProfileByName("s15850")
	c, scheme, err := prof.Build(lib)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Retime(c, Options{Scheme: scheme, EDLCost: 2}, ApproachGRAR)
	if err != nil {
		t.Fatal(err)
	}
	reclaimed, comp, err := ReclaimBySizing(context.Background(), res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed.EDCount > res.EDCount {
		t.Errorf("EDL grew: %d -> %d", res.EDCount, reclaimed.EDCount)
	}
	if res.EDCount <= 1 && comp.Upsized > res.Circuit.GateCount()/10 {
		t.Errorf("near-clean circuit should need few upsizes, got %d", comp.Upsized)
	}
}
