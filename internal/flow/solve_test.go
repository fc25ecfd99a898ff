package flow

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// randomFeasible builds a dense random transshipment instance that both
// solvers can solve (supplies routed through a grid of positive-cost
// arcs with generous capacities).
func randomFeasible(t *testing.T, rng *rand.Rand, n int) *Network {
	t.Helper()
	nw := NewNetwork(n)
	var supply int64
	for v := 0; v < n-1; v++ {
		d := int64(rng.Intn(9) - 4)
		nw.SetDemand(v, d)
		supply += d
	}
	nw.SetDemand(n-1, -supply)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			addArc(t, nw, u, v, int64(rng.Intn(20)+1), int64(rng.Intn(30)+10))
		}
	}
	return nw
}

func TestSolveMethodInfeasibleIsDefinitive(t *testing.T) {
	// A consumer no arc can reach: both solvers must prove infeasibility,
	// and MethodAuto must NOT mask it by falling back.
	nw := NewNetwork(3)
	nw.SetDemand(0, -5)
	nw.SetDemand(2, 5)
	addArc(t, nw, 0, 1, 1, Unbounded)
	_, rep, err := nw.SolveMethod(context.Background(), MethodAuto)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if rep.Fallback {
		t.Error("infeasibility triggered a fallback; it is definitive")
	}
}

func TestSolveMethodUnboundedIsDefinitive(t *testing.T) {
	// A negative cycle with unbounded capacity.
	nw := NewNetwork(2)
	addArc(t, nw, 0, 1, -3, Unbounded)
	addArc(t, nw, 1, 0, 1, Unbounded)
	_, rep, err := nw.SolveMethod(context.Background(), MethodAuto)
	if !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	if rep.Fallback {
		t.Error("unboundedness triggered a fallback; it is definitive")
	}
}

func TestSolveMethodUnbalancedRejected(t *testing.T) {
	nw := NewNetwork(2)
	nw.SetDemand(0, 3)
	addArc(t, nw, 0, 1, 1, Unbounded)
	_, _, err := nw.SolveMethod(context.Background(), MethodAuto)
	if !errors.Is(err, ErrUnbalanced) {
		t.Fatalf("err = %v, want ErrUnbalanced", err)
	}
}

func TestOverflowScaleCostRejected(t *testing.T) {
	nw := NewNetwork(2)
	nw.SetDemand(0, -1)
	nw.SetDemand(1, 1)
	addArc(t, nw, 0, 1, Unbounded, Unbounded)
	addArc(t, nw, 0, 1, Unbounded/2, Unbounded)
	for _, m := range []Method{MethodSimplex, MethodSSP, MethodAuto} {
		if _, _, err := nw.SolveMethod(context.Background(), m); !errors.Is(err, ErrOverflow) {
			t.Errorf("%v: err = %v, want ErrOverflow", m, err)
		}
	}
}

func TestPivotLimitTriggersSSPFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := randomFeasible(t, rng, 12)

	// Reference answer with the default budget.
	ref, err := nw.SolveSimplexCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One pivot cannot finish a 12-node dense instance: the explicit
	// simplex must fail with ErrPivotLimit...
	nw.SetPivotLimit(1)
	_, _, err = nw.SolveMethod(context.Background(), MethodSimplex)
	if !errors.Is(err, ErrPivotLimit) {
		t.Fatalf("explicit simplex err = %v, want ErrPivotLimit", err)
	}

	// ...and MethodAuto must degrade to SSP, certify, and match.
	sol, rep, err := nw.SolveMethod(context.Background(), MethodAuto)
	if err != nil {
		t.Fatalf("auto solve failed: %v", err)
	}
	if !rep.Fallback || rep.Solver != MethodSSP {
		t.Fatalf("report = %+v, want SSP fallback", rep)
	}
	if !rep.Certified {
		t.Error("fallback solution not certified")
	}
	if rep.FallbackReason == "" {
		t.Error("fallback reason empty")
	}
	if sol.Cost != ref.Cost {
		t.Errorf("fallback cost %d, reference %d", sol.Cost, ref.Cost)
	}
	if err := nw.Certify(sol); err != nil {
		t.Errorf("re-certification failed: %v", err)
	}
}

func TestCancelledContextStopsSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nw := randomFeasible(t, rng, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MethodSimplex, MethodSSP, MethodAuto} {
		_, rep, err := nw.SolveMethod(ctx, m)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", m, err)
		}
		if rep.Fallback {
			t.Errorf("%v: cancellation triggered a fallback", m)
		}
	}
}

func TestDeadlineBoundedSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nw := randomFeasible(t, rng, 10)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := nw.SolveMethod(ctx, MethodAuto); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestCertifyRejectsTamperedSolution(t *testing.T) {
	nw := NewNetwork(2)
	nw.SetDemand(0, -4)
	nw.SetDemand(1, 4)
	addArc(t, nw, 0, 1, 1, 6)
	addArc(t, nw, 0, 1, 5, Unbounded)
	sol, err := nw.SolveSimplexCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Certify(sol); err != nil {
		t.Fatalf("genuine optimum failed certification: %v", err)
	}

	// Shift a unit from the cheap arc to the expensive one: still a
	// feasible flow, but no longer optimal nor cost-consistent.
	bad := &Solution{Flow: append([]int64(nil), sol.Flow...), Cost: sol.Cost, Potential: sol.Potential}
	bad.Flow[0]--
	bad.Flow[1]++
	if err := nw.Certify(bad); !errors.Is(err, ErrNotCertified) {
		t.Errorf("tampered flow err = %v, want ErrNotCertified", err)
	}

	// Tamper the duals instead: flow stays optimal but the certificate
	// must notice the broken complementary slackness.
	badPot := &Solution{Flow: sol.Flow, Cost: sol.Cost, Potential: append([]int64(nil), sol.Potential...)}
	badPot.Potential[0] += 100
	if err := nw.Certify(badPot); !errors.Is(err, ErrNotCertified) {
		t.Errorf("tampered potentials err = %v, want ErrNotCertified", err)
	}

	if err := nw.Certify(nil); !errors.Is(err, ErrNotCertified) {
		t.Errorf("nil solution err = %v, want ErrNotCertified", err)
	}
}

func TestParseMethod(t *testing.T) {
	cases := []struct {
		in   string
		want Method
		ok   bool
	}{
		{"auto", MethodAuto, true},
		{"", MethodAuto, true},
		{"simplex", MethodSimplex, true},
		{"ssp", MethodSSP, true},
		{"gurobi", 0, false},
	}
	for _, c := range cases {
		got, err := ParseMethod(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseMethod(%q) succeeded, want error", c.in)
		}
	}
}

func TestSolveMethodRandomCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		nw := randomFeasible(t, rng, 4+rng.Intn(6))
		sol, rep, err := nw.SolveMethod(context.Background(), MethodAuto)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				continue
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !rep.Certified {
			t.Fatalf("trial %d: uncertified result", trial)
		}
		ssp, err := nw.SolveSSPCtx(context.Background())
		if err != nil {
			t.Fatalf("trial %d: ssp: %v", trial, err)
		}
		if sol.Cost != ssp.Cost {
			t.Fatalf("trial %d: auto %d vs ssp %d", trial, sol.Cost, ssp.Cost)
		}
	}
}
