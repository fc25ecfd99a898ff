package experiments

import (
	"context"
	"testing"
)

// TestPaperShapes verifies the qualitative results the paper reports,
// on a medium slice of the benchmark suite at the high overhead (where
// the contrasts are largest):
//
//   - G-RAR never loses to base retiming on sequential or total area,
//   - the best virtual-library variant (RVL) sits between base and G-RAR
//     in aggregate,
//   - EVL never beats RVL (Table III's ordering),
//   - G-RAR ends with at most base's error-detecting latch count, and
//   - both retimed designs cut the base error rate in aggregate.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("medium integration sweep")
	}
	s, err := RunCtx(context.Background(), Config{
		Profiles:      []string{"s1423", "s5378", "s9234"},
		Overheads:     []float64{2.0},
		SimCycles:     400,
		MovableTrials: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var baseTot, rvlTot, gTot float64
	var baseErr, gErr float64
	for _, r := range s.Runs {
		or := r.ByOverhead[2.0]
		name := r.Profile.Name

		if or.GRARPath.SeqArea > or.Base.SeqArea+1e-9 {
			t.Errorf("%s: G-RAR sequential area %g exceeds base %g", name, or.GRARPath.SeqArea, or.Base.SeqArea)
		}
		if or.GRARPath.EDCount > or.Base.EDCount {
			t.Errorf("%s: G-RAR EDL %d exceeds base %d", name, or.GRARPath.EDCount, or.Base.EDCount)
		}
		if or.EVL.TotalArea < or.RVL.TotalArea-1e-9 {
			t.Errorf("%s: EVL area %g beats RVL %g (Table III ordering)", name, or.EVL.TotalArea, or.RVL.TotalArea)
		}
		baseTot += or.Base.TotalArea
		rvlTot += or.RVL.TotalArea
		gTot += or.GRARPath.TotalArea
		baseErr += or.ErrBase.ErrorRate
		gErr += or.ErrG.ErrorRate

		// Ablation: sizing reclaim never increases EDL, and any area it
		// spends is combinational.
		if or.GReclaim.EDCount > or.GRARPath.EDCount {
			t.Errorf("%s: reclaim increased EDL %d -> %d", name, or.GRARPath.EDCount, or.GReclaim.EDCount)
		}
		if or.ErrGReclaim.ErrorRate > or.ErrG.ErrorRate+1e-9 {
			t.Errorf("%s: reclaim worsened the error rate %.2f -> %.2f", name, or.ErrG.ErrorRate, or.ErrGReclaim.ErrorRate)
		}

		// Table IX: movable masters change little.
		m := or.Movable
		ratio := m.Movable.TotalArea / m.Fixed.TotalArea
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("%s: movable/fixed ratio %g outside the little-to-no-gain band", name, ratio)
		}
	}
	if gTot > baseTot {
		t.Errorf("aggregate: G-RAR %g worse than base %g", gTot, baseTot)
	}
	if gTot > rvlTot+1e-9 && rvlTot > baseTot {
		t.Errorf("aggregate ordering broken: base %g, rvl %g, g %g", baseTot, rvlTot, gTot)
	}
	if gErr > baseErr {
		t.Errorf("aggregate error rate: G %g worse than base %g", gErr, baseErr)
	}
}
