package flow

import (
	"context"
	"fmt"

	"relatch/internal/obs"
)

// Method selects the flow solver backing a solve.
type Method int

const (
	// MethodAuto — the zero value, so every caller that does not pick a
	// solver gets the hardened path — tries network simplex first,
	// certifies the result against LP duality, and falls back to
	// successive shortest paths on pivot-limit exhaustion or certification
	// failure.
	MethodAuto Method = iota
	// MethodSimplex uses the network simplex solver (the paper's choice).
	MethodSimplex
	// MethodSSP uses successive shortest paths.
	MethodSSP
)

func (m Method) String() string {
	switch m {
	case MethodSimplex:
		return "simplex"
	case MethodSSP:
		return "ssp"
	}
	return "auto"
}

// ParseMethod maps a flag value to a Method.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "auto", "":
		return MethodAuto, nil
	case "simplex":
		return MethodSimplex, nil
	case "ssp":
		return MethodSSP, nil
	}
	return MethodAuto, fmt.Errorf("flow: %w %q (want auto, simplex or ssp)", ErrBadMethod, s)
}

// DiffLP is an integer linear program over difference constraints:
//
//	min  Σ_v obj(v)·r(v)
//	s.t. r(u) − r(v) ≤ c(u,v)   for every constraint
//
// with integer objective coefficients and bounds. The constraint matrix
// is totally unimodular, so the LP relaxation solved through its
// min-cost-flow dual yields integral optima — this is how the paper
// avoids a general ILP solver (Section IV-D).
//
// Variables are indexed 0..n-1. One variable must act as the anchor
// (usually the retiming host node): bounds of other variables are
// relative to it, and the reported solution normalizes the anchor to 0.
type DiffLP struct {
	n          int
	anchor     int
	obj        []int64
	cons       []diffConstraint
	pivotLimit int
}

type diffConstraint struct {
	u, v int
	c    int64
}

// NewDiffLP creates a program with n variables anchored at variable
// anchor.
func NewDiffLP(n, anchor int) *DiffLP {
	return &DiffLP{n: n, anchor: anchor, obj: make([]int64, n)}
}

// SetObjective sets the objective coefficient of variable v.
func (l *DiffLP) SetObjective(v int, coeff int64) { l.obj[v] = coeff }

// AddObjective adds to the objective coefficient of variable v.
func (l *DiffLP) AddObjective(v int, coeff int64) { l.obj[v] += coeff }

// NumVariables returns the variable count.
func (l *DiffLP) NumVariables() int { return l.n }

// NumConstraints returns the constraint count, including bounds.
func (l *DiffLP) NumConstraints() int { return len(l.cons) }

// Constrain adds r(u) − r(v) ≤ c.
func (l *DiffLP) Constrain(u, v int, c int64) {
	l.cons = append(l.cons, diffConstraint{u: u, v: v, c: c})
}

// Bound constrains lo ≤ r(v) − r(anchor) ≤ hi.
func (l *DiffLP) Bound(v int, lo, hi int64) {
	if v == l.anchor {
		return
	}
	// r(v) − r(anchor) ≤ hi.
	l.Constrain(v, l.anchor, hi)
	// r(anchor) − r(v) ≤ −lo.
	l.Constrain(l.anchor, v, -lo)
}

// SetPivotLimit overrides the simplex pivot budget of the backing
// network solve (0 = automatic).
func (l *DiffLP) SetPivotLimit(limit int) { l.pivotLimit = limit }

// Result is an optimal assignment with the anchor normalized to zero.
type Result struct {
	R         []int64
	Objective int64
	// Method is the solver that produced the accepted solution (never
	// MethodAuto: auto resolves to the winner).
	Method Method
	// Fallback / FallbackReason / Certified mirror the flow.Report of the
	// backing network solve.
	Fallback       bool
	FallbackReason string
	Certified      bool
}

// lower builds the dual transshipment network — node demand(v) = obj(v),
// one arc per constraint (u,v) with cost c — and the variable permutation
// that moves the anchor to the highest node index so residualPotentials
// roots at it (see potentialRoot). Shared by SolveCtx and Preflight.
func (l *DiffLP) lower() (nw *Network, perm []int, err error) {
	perm = make([]int, l.n)
	idx := 0
	for v := 0; v < l.n; v++ {
		if v == l.anchor {
			continue
		}
		perm[v] = idx
		idx++
	}
	perm[l.anchor] = l.n - 1

	// Minimizing Σ obj(v)·(r(v) − r(anchor)) pins the anchor at zero;
	// the anchor's demand absorbs the coefficient sum so the dual
	// transshipment balances — exactly the paper's host demand
	// X(h) = −B(h) − c·|V2| in Eq. (14).
	nw = NewNetwork(l.n)
	// One arc per constraint: sizing the arc slice up front keeps the
	// append-doubling copies out of the heap peak of every solve.
	nw.arcs = make([]Arc, 0, len(l.cons))
	var sum int64
	for v := 0; v < l.n; v++ {
		sum += l.obj[v]
	}
	for v := 0; v < l.n; v++ {
		d := l.obj[v]
		if v == l.anchor {
			d -= sum
		}
		nw.SetDemand(perm[v], d)
	}
	for _, c := range l.cons {
		if _, err := nw.AddArc(perm[c.u], perm[c.v], c.c, Unbounded); err != nil {
			return nil, nil, err
		}
	}
	return nw, perm, nil
}

// Preflight lowers the program to its dual network and runs the solver
// admission checks — conservation (ErrUnbalanced), magnitude bounds
// (ErrOverflow), arc structure (ErrBadArc) — without paying for a solve.
// A nil error means a solve would be admitted, not that it is feasible.
func (l *DiffLP) Preflight() error {
	nw, _, err := l.lower()
	if err != nil {
		return err
	}
	return nw.Validate()
}

// SolveCtx lowers the program to its dual transshipment network, solves
// it with the selected method (hardened fallback under MethodAuto), and
// reads the optimal r values off the node potentials.
func (l *DiffLP) SolveCtx(ctx context.Context, method Method) (*Result, error) {
	sp, ctx := obs.StartSpan(ctx, "flow.difflp")
	defer sp.End()
	sp.Gauge("variables", int64(l.n))
	sp.Gauge("constraints", int64(len(l.cons)))
	nw, perm, err := l.lower()
	if err != nil {
		sp.Fail(err)
		return nil, err
	}
	nw.SetPivotLimit(l.pivotLimit)
	sol, rep, err := nw.SolveMethod(ctx, method)
	if err != nil {
		return nil, fmt.Errorf("flow: difference LP: %w", err)
	}

	r := make([]int64, l.n)
	base := sol.Potential[perm[l.anchor]]
	for v := 0; v < l.n; v++ {
		r[v] = sol.Potential[perm[v]] - base
	}
	res := &Result{
		R:              r,
		Method:         rep.Solver,
		Fallback:       rep.Fallback,
		FallbackReason: rep.FallbackReason,
		Certified:      rep.Certified,
	}
	for v := 0; v < l.n; v++ {
		res.Objective += l.obj[v] * r[v]
	}
	// The network-level certificate already implies dual feasibility —
	// i.e. every difference constraint holds on the lifted r — but the
	// direct check is cheap and guards the lifting itself.
	if err := l.checkFeasible(res.R); err != nil {
		return nil, fmt.Errorf("flow: difference LP produced infeasible duals: %w: %v", ErrNotCertified, err)
	}
	// Strong duality: the dual flow cost equals the primal optimum up to
	// sign bookkeeping; the definitive value is recomputed from r above.
	return res, nil
}

// checkFeasible verifies every constraint against an assignment.
func (l *DiffLP) checkFeasible(r []int64) error {
	for _, c := range l.cons {
		if r[c.u]-r[c.v] > c.c {
			//relint:ignore sentinel -- detail string embedded in the ErrNotCertified wrap at the only call site
			return fmt.Errorf("r(%d)−r(%d) = %d > %d", c.u, c.v, r[c.u]-r[c.v], c.c)
		}
	}
	return nil
}
