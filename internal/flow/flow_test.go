package flow

import (
	"context"
	"math/rand"
	"testing"
)

func addArc(t *testing.T, nw *Network, from, to int, cost, cap int64) int {
	t.Helper()
	i, err := nw.AddArc(from, to, cost, cap)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

// solveBoth runs both solvers and checks they agree on the optimal cost.
func solveBoth(t *testing.T, nw *Network) (*Solution, *Solution) {
	t.Helper()
	sim, errSim := nw.SolveSimplexCtx(context.Background())
	ssp, errSSP := nw.SolveSSPCtx(context.Background())
	if (errSim == nil) != (errSSP == nil) {
		t.Fatalf("solver disagreement: simplex err=%v, ssp err=%v", errSim, errSSP)
	}
	if errSim != nil {
		return nil, nil
	}
	if sim.Cost != ssp.Cost {
		t.Fatalf("optimal cost disagreement: simplex %d, ssp %d", sim.Cost, ssp.Cost)
	}
	return sim, ssp
}

func TestSimpleTransportation(t *testing.T) {
	// Two suppliers, two consumers; optimum ships the cheap lanes first.
	nw := NewNetwork(4)
	nw.SetDemand(0, -10) // supplier
	nw.SetDemand(1, -5)
	nw.SetDemand(2, 8) // consumer
	nw.SetDemand(3, 7)
	addArc(t, nw, 0, 2, 1, Unbounded)
	addArc(t, nw, 0, 3, 4, Unbounded)
	addArc(t, nw, 1, 2, 6, Unbounded)
	addArc(t, nw, 1, 3, 2, Unbounded)
	sim, _ := solveBoth(t, nw)
	// Ship 8 on 0->2 (cost 8), 2 on 0->3 (cost 8), 5 on 1->3 (cost 10).
	if sim.Cost != 26 {
		t.Errorf("cost = %d, want 26", sim.Cost)
	}
}

func TestCapacitatedDetour(t *testing.T) {
	// The cheap arc saturates and the remainder takes the expensive one.
	nw := NewNetwork(2)
	nw.SetDemand(0, -10)
	nw.SetDemand(1, 10)
	addArc(t, nw, 0, 1, 1, 6)
	addArc(t, nw, 0, 1, 5, Unbounded)
	sim, _ := solveBoth(t, nw)
	if sim.Cost != 6*1+4*5 {
		t.Errorf("cost = %d, want 26", sim.Cost)
	}
	if sim.Flow[0] != 6 || sim.Flow[1] != 4 {
		t.Errorf("flows = %v, want [6 4]", sim.Flow)
	}
}

func TestNegativeCostArc(t *testing.T) {
	// A profitable loop bounded by capacity: both solvers must exploit
	// the negative arc exactly to its cap.
	nw := NewNetwork(3)
	nw.SetDemand(0, -4)
	nw.SetDemand(2, 4)
	addArc(t, nw, 0, 1, 2, Unbounded)
	addArc(t, nw, 1, 2, -1, 5)
	addArc(t, nw, 0, 2, 3, Unbounded)
	sim, _ := solveBoth(t, nw)
	if sim.Cost != 4 {
		t.Errorf("cost = %d, want 4 (all four units via the -1 arc)", sim.Cost)
	}
}

func TestInfeasibleDetected(t *testing.T) {
	nw := NewNetwork(3)
	nw.SetDemand(0, -5)
	nw.SetDemand(2, 5)
	addArc(t, nw, 0, 1, 1, Unbounded) // node 2 unreachable
	if _, err := nw.SolveSimplexCtx(context.Background()); err == nil {
		t.Error("simplex accepted an infeasible network")
	}
	if _, err := nw.SolveSSPCtx(context.Background()); err == nil {
		t.Error("ssp accepted an infeasible network")
	}
}

func TestUnbalancedRejected(t *testing.T) {
	nw := NewNetwork(2)
	nw.SetDemand(0, 3)
	if _, err := nw.SolveSimplexCtx(context.Background()); err == nil {
		t.Error("unbalanced demands accepted")
	}
}

func TestBadArcRejected(t *testing.T) {
	nw := NewNetwork(2)
	if _, err := nw.AddArc(0, 0, 1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := nw.AddArc(0, 5, 1, 1); err == nil {
		t.Error("out-of-range arc accepted")
	}
	if _, err := nw.AddArc(0, 1, 1, -2); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestPotentialsAreOptimalDuals(t *testing.T) {
	nw := NewNetwork(4)
	nw.SetDemand(0, -7)
	nw.SetDemand(3, 7)
	addArc(t, nw, 0, 1, 2, 5)
	addArc(t, nw, 1, 3, 1, Unbounded)
	addArc(t, nw, 0, 2, 4, Unbounded)
	addArc(t, nw, 2, 3, 1, Unbounded)
	sim, ssp := solveBoth(t, nw)
	for name, sol := range map[string]*Solution{"simplex": sim, "ssp": ssp} {
		for i := 0; i < nw.NumArcs(); i++ {
			a := nw.Arc(i)
			rc := a.Cost - sol.Potential[a.From] + sol.Potential[a.To]
			if sol.Flow[i] < a.Cap && rc < 0 {
				t.Errorf("%s: arc %d has residual capacity but reduced cost %d < 0", name, i, rc)
			}
			if sol.Flow[i] > 0 && rc > 0 {
				t.Errorf("%s: arc %d carries flow but reduced cost %d > 0", name, i, rc)
			}
		}
	}
}

// TestRandomNetworksCrossCheck builds networks with a known feasible flow
// and verifies both solvers agree on optimal cost and dual feasibility.
func TestRandomNetworksCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		nw := NewNetwork(n)
		bal := make([]int64, n)
		arcCount := n + rng.Intn(3*n)
		for i := 0; i < arcCount; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			capv := int64(1 + rng.Intn(20))
			cost := int64(rng.Intn(12) - 2)
			addArc(t, nw, u, v, cost, capv)
			// Route a random sub-capacity flow to guarantee feasibility.
			f := int64(rng.Intn(int(capv + 1)))
			bal[v] += f
			bal[u] -= f
		}
		for v := 0; v < n; v++ {
			nw.SetDemand(v, bal[v])
		}
		sim, ssp := solveBoth(t, nw)
		if sim == nil {
			t.Fatalf("trial %d: constructed-feasible network reported infeasible", trial)
		}
		if err := nw.verify(sim); err != nil {
			t.Fatalf("trial %d simplex: %v", trial, err)
		}
		if err := nw.verify(ssp); err != nil {
			t.Fatalf("trial %d ssp: %v", trial, err)
		}
	}
}

// bruteForceDiffLP enumerates assignments in [lo,hi]^n.
func bruteForceDiffLP(l *DiffLP, lo, hi int64) (best int64, feasible bool) {
	n := l.n
	r := make([]int64, n)
	var rec func(i int)
	found := false
	var bestVal int64
	rec = func(i int) {
		if i == n {
			if l.checkFeasible(r) != nil {
				return
			}
			// Normalize to anchor = 0 for objective comparability: the
			// objective is invariant only if coefficients sum to zero,
			// so evaluate directly.
			var obj int64
			for v := 0; v < n; v++ {
				obj += l.obj[v] * (r[v] - r[l.anchor])
			}
			if !found || obj < bestVal {
				found = true
				bestVal = obj
			}
			return
		}
		for val := lo; val <= hi; val++ {
			r[i] = val
			rec(i + 1)
		}
	}
	rec(0)
	return bestVal, found
}

func TestDiffLPSmallKnown(t *testing.T) {
	// min r0 - r1 with r0 - r1 >= -2 expressed as r1 - r0 <= 2, bounds
	// [-2,2]; anchor r2. Optimum: r0 - r1 = -2.
	l := NewDiffLP(3, 2)
	l.SetObjective(0, 1)
	l.SetObjective(1, -1)
	l.Constrain(1, 0, 2)
	l.Bound(0, -2, 2)
	l.Bound(1, -2, 2)
	res, err := l.SolveCtx(context.Background(), MethodSimplex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != -2 {
		t.Errorf("objective = %d, want -2 (r=%v)", res.Objective, res.R)
	}
	if res.R[2] != 0 {
		t.Errorf("anchor not normalized: %v", res.R)
	}
}

func TestDiffLPInfeasible(t *testing.T) {
	l := NewDiffLP(3, 2)
	l.Constrain(0, 1, -5) // r0 <= r1 - 5 conflicts with bounds ±1
	l.Bound(0, -1, 1)
	l.Bound(1, -1, 1)
	if _, err := l.SolveCtx(context.Background(), MethodSimplex); err == nil {
		t.Error("infeasible LP accepted by simplex path")
	}
	if _, err := l.SolveCtx(context.Background(), MethodSSP); err == nil {
		t.Error("infeasible LP accepted by ssp path")
	}
}

func TestDiffLPRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const lo, hi = -2, 2
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(5) // includes anchor
		anchor := n - 1
		l := NewDiffLP(n, anchor)
		for v := 0; v < n; v++ {
			l.SetObjective(v, int64(rng.Intn(7)-3))
		}
		for v := 0; v < n-1; v++ {
			l.Bound(v, lo, hi)
		}
		consCount := rng.Intn(2 * n)
		for i := 0; i < consCount; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			l.Constrain(u, v, int64(rng.Intn(5)-1))
		}
		want, feasible := bruteForceDiffLP(l, lo, hi)
		for _, m := range []Method{MethodSimplex, MethodSSP} {
			res, err := l.SolveCtx(context.Background(), m)
			if !feasible {
				if err == nil {
					t.Fatalf("trial %d (%v): infeasible LP solved to %d", trial, m, res.Objective)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d (%v): %v", trial, m, err)
			}
			if res.Objective != want {
				t.Fatalf("trial %d (%v): objective %d, want %d (r=%v)", trial, m, res.Objective, want, res.R)
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodSimplex.String() != "simplex" || MethodSSP.String() != "ssp" {
		t.Error("method names wrong")
	}
}
