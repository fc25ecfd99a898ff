package vlib

import (
	"context"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// shiftable builds a design where sliding a master forward rebalances the
// stages: a one-gate stage feeds a flop feeding a five-gate stage whose
// endpoint sits past Π until the flop moves one gate later.
func shiftable(t *testing.T) (*netlist.SeqCircuit, clocking.Scheme) {
	t.Helper()
	lib := cell.Default(1.0)
	b := netlist.NewSeqBuilder("shift", lib)
	pi := b.PI("a")
	d1 := b.Gate("d1", lib.MustCell(cell.FuncBuf, 1), pi)
	ff := b.FF("f1")
	b.SetD(ff, d1)
	cur := ff
	for i := 0; i < 5; i++ {
		cur = b.Gate(nm("c", i), lib.MustCell(cell.FuncBuf, 1), cur)
	}
	b.PO("y", cur)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cut, err := sc.Cut()
	if err != nil {
		t.Fatal(err)
	}
	// Place Π between the 4-gate and 5-gate stage delays so exactly one
	// forward master move clears the near-critical endpoint.
	tm := sta.Analyze(cut, sta.DefaultOptions(lib))
	worst := 0.0
	for _, o := range cut.Outputs {
		if a := tm.Arrival(o); a > worst {
			worst = a
		}
	}
	return sc, clocking.Symmetric(worst * 1.28) // Π ≈ 0.9·worst
}

func nm(p string, i int) string { return p + string(rune('0'+i)) }

func TestForwardMoveRebalancesStages(t *testing.T) {
	sc, scheme := shiftable(t)
	res, err := RetimeMovableMasterCtx(context.Background(), sc, scheme, Options{Scheme: scheme, EDLCost: 2, PostSwap: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("expected at least one accepted master move")
	}
	// State-preserving moves keep the register count.
	if res.Movable.MasterCount != res.Fixed.MasterCount {
		t.Errorf("movable masters %d differ from fixed %d; single-input moves must preserve the count",
			res.Movable.MasterCount, res.Fixed.MasterCount)
	}
	if res.Movable.EDCount > res.Fixed.EDCount {
		t.Errorf("the accepted move should not add error detection: %d -> %d",
			res.Fixed.EDCount, res.Movable.EDCount)
	}
	if err := res.Movable.Placement.Validate(res.Movable.Circuit); err != nil {
		t.Fatal(err)
	}
}

func TestApplyMoveBackward(t *testing.T) {
	lib := cell.Default(1.0)
	b := netlist.NewSeqBuilder("back", lib)
	pi := b.PI("a")
	g := b.Gate("g", lib.MustCell(cell.FuncInv, 1), pi)
	f := b.FF("f")
	b.SetD(f, g)
	out := b.Gate("o1", lib.MustCell(cell.FuncInv, 1), f)
	b.PO("y", out)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var gate *netlist.SeqNode
	for _, n := range sc.Nodes {
		if n.Name == "g" {
			gate = n
		}
	}
	if !backwardMovable(gate) {
		t.Fatal("single-input g should be backward movable")
	}
	if err := applyMove(sc, gate.ID, false); err != nil {
		t.Fatal(err)
	}
	// The output flop became an input flop; the count is preserved.
	if got := len(sc.FFs); got != 1 {
		t.Errorf("FFs = %d, want 1", got)
	}
	// The flop now sits before g: its D driver is the primary input.
	if sc.FFs[0].Fanin[0].Kind != netlist.SeqPI {
		t.Errorf("moved flop should capture the primary input, got %v", sc.FFs[0].Fanin[0].Kind)
	}
	if _, err := sc.Cut(); err != nil {
		t.Fatalf("moved circuit does not cut: %v", err)
	}
}

func TestMultiInputGatesAreNotMovable(t *testing.T) {
	lib := cell.Default(1.0)
	b := netlist.NewSeqBuilder("multi", lib)
	f1 := b.FF("f1")
	f2 := b.FF("f2")
	pi := b.PI("a")
	g := b.Gate("g", lib.MustCell(cell.FuncNand2, 1), f1, f2)
	b.SetD(f1, b.Gate("d1", lib.MustCell(cell.FuncBuf, 1), pi))
	b.SetD(f2, b.Gate("d2", lib.MustCell(cell.FuncInv, 1), pi))
	ff3 := b.FF("f3")
	b.SetD(ff3, g)
	b.PO("y", ff3)
	sc, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var gate *netlist.SeqNode
	for _, n := range sc.Nodes {
		if n.Name == "g" {
			gate = n
		}
	}
	// Merging f1/f2 (forward) or splitting f3 (backward) across the
	// 2-input NAND would change the state encoding: both are barred.
	if forwardMovable(gate) {
		t.Error("2-input gate must not be forward movable")
	}
	if backwardMovable(gate) {
		t.Error("2-input gate must not be backward movable")
	}
}

func TestMovableOnProfile(t *testing.T) {
	lib := cell.Default(1.0)
	p, _ := bench.ProfileByName("s1196")
	sc, err := p.BuildSeq(lib)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := sc.Cut()
	if err != nil {
		t.Fatal(err)
	}
	scheme := bench.SchemeFor(cut, sta.DefaultOptions(lib))
	res, err := RetimeMovableMasterCtx(context.Background(), sc, scheme, Options{Scheme: scheme, EDLCost: 1, PostSwap: true}, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Table IX's observation: little to no gain either way, but both
	// runs must be legal and comparable.
	if res.Fixed == nil || res.Movable == nil {
		t.Fatal("missing results")
	}
	ratio := res.Movable.TotalArea / res.Fixed.TotalArea
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("movable/fixed area ratio %g outside the little-to-no-gain band", ratio)
	}
}
