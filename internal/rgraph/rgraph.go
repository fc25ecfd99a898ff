// Package rgraph builds the paper's modified retiming graph (Section IV)
// and lowers it onto the difference-constraint LP / min-cost-flow layer:
//
//   - regions V_m, V_n, V_r pre-divide the nodes by the latch timing
//     constraints (6) and (7) (Section IV-B),
//   - fanout sharing uses the Leiserson-Saxe mirror-node construction
//     (the m_u nodes of Fig. 5); the breadths β=1/k cancel inside each
//     fanout group, so all LP coefficients stay integral,
//   - for every *target master* t (a master whose error-detecting status
//     depends on the slave positions) the cut set g(t) of Eq. (8–9) is
//     computed and a pseudo node P(t) with the −c reward edge to the host
//     is added (Section IV-A, the red E2/V2 of Fig. 5).
//
// With ResilientAware switched off the construction degenerates to
// classic min-area latch retiming — the paper's Base-Retiming comparison.
package rgraph

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"relatch/internal/cell"
	"relatch/internal/clocking"
	"relatch/internal/flow"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/sta"
)

// Scale clears the EDL overhead factor c to an integer objective
// coefficient (supports c at millesimal resolution). It is large enough
// that the movement tie-break below can never outweigh a single latch.
const Scale = 100000

// moveCost is the tiny secondary objective added per retimed node: among
// placements of equal latch cost, prefer the one closest to the initial
// positions. Commercial retiming behaves the same way (minimum
// perturbation keeps wiring and load changes small), and the paper's
// base-retiming results — latches staying near the registers, error
// detection staying high — reflect it.
const moveCost = 1

// Config parameterizes graph construction.
type Config struct {
	Scheme clocking.Scheme
	// Latch is the slave latch whose ClkToQ/DToQ enter Eq. (5).
	Latch cell.Latch
	// EDLCost is the overhead factor c: an error-detecting master costs
	// c extra latch-areas.
	EDLCost float64
	// ResilientAware enables the P(t)/E2 construction (G-RAR). When
	// false the graph solves traditional min-area retiming (Base).
	ResilientAware bool
	// MovementPrimary models the commercial baseline's minimum-
	// perturbation behavior (base retiming in the paper's Table VI keeps
	// its slave counts at or just above the register count): latches
	// move only where the latch timing constraints force them, with
	// latch count minimized among the minimal-movement solutions.
	MovementPrimary bool
	// Required optionally sets per-endpoint required times (output node
	// ID → time). Defaults to Π+φ1 (the max stage delay) everywhere.
	// The virtual-library flows use Π for endpoints assigned a
	// non-error-detecting master, which is how the latch-type decision
	// constrains the tool's retiming (Section V).
	Required map[int]float64
	// PivotLimit overrides the simplex pivot budget of the backing flow
	// solve (0 = automatic). Callers use it for early bail-out and tests
	// use it to force the simplex→SSP fallback through the full stack.
	PivotLimit int
}

// TargetClass classifies a master endpoint's error-detecting status
// before solving (Section III / IV-A).
type TargetClass int

const (
	// NeverED: the endpoint meets Π even with slaves at their initial
	// positions; it needs no error detection regardless of retiming.
	NeverED TargetClass = iota
	// AlwaysED: the endpoint exceeds Π even with the furthest-forward
	// legal cut; it must be error-detecting regardless of retiming.
	AlwaysED
	// Target: error detection depends on the slave positions; the graph
	// gets a pseudo node P(t) for it.
	Target
)

func (t TargetClass) String() string {
	switch t {
	case NeverED:
		return "never-ed"
	case AlwaysED:
		return "always-ed"
	case Target:
		return "target"
	}
	return fmt.Sprintf("class(%d)", int(t))
}

// Graph is the constructed retiming graph plus its LP.
type Graph struct {
	C   *netlist.Circuit
	T   *sta.Timing
	Cfg Config

	// Regions by node ID (V_n additionally contains every output node).
	Vm, Vn, Vr map[int]bool

	// Class maps output node ID to its target classification.
	Class map[int]TargetClass
	// GT maps a Target output ID to its cut set g(t), sorted node IDs.
	GT map[int][]int

	dbMax    []float64
	dbAdj    []float64 // required-time-adjusted backward delays
	lp       *flow.DiffLP
	host     int
	varOf    []int       // node ID -> variable
	mirrorOf map[int]int // driver node ID -> mirror variable
	pseudoOf map[int]int // target output ID -> P(t) variable
	numVars  int
	// coneNodes sums |FIC(t)| over the targets whose cut set was built.
	coneNodes int
}

// Solution is a solved retiming.
type Solution struct {
	// R maps node ID to its retiming value (−1 or 0).
	R map[int]int
	// Placement is the slave-latch placement implied by R.
	Placement *netlist.Placement
	// PseudoFired maps target output IDs to whether the solve claimed
	// the −c reward (all of g(t) retimed), i.e. the model expects the
	// master to be non-error-detecting.
	PseudoFired map[int]bool
	// Objective is the solved LP objective in latch-area units: slave
	// latch count minus c per reclaimed target, up to a constant offset.
	Objective float64
	// Method is the solver that produced the accepted solution; Fallback,
	// FallbackReason and Certified report the hardened solve (see
	// flow.Report).
	Method         flow.Method
	Fallback       bool
	FallbackReason string
	Certified      bool
}

// Build computes regions, classifies endpoints, derives g(t) and
// assembles the LP. The timing analysis must belong to the circuit.
func Build(c *netlist.Circuit, t *sta.Timing, cfg Config) (*Graph, error) {
	if err := cfg.Scheme.Validate(); err != nil {
		return nil, err
	}
	// A NaN/Inf/negative c would poison the integer objective coefficient
	// (cScaled) mid-lowering; reject it before any graph work.
	if v := cfg.EDLCost; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return nil, fmt.Errorf("rgraph: %w: EDL cost factor c = %g, want finite and non-negative", ErrBadConfig, v)
	}
	g := &Graph{
		C: c, T: t, Cfg: cfg,
		Vm: make(map[int]bool), Vn: make(map[int]bool), Vr: make(map[int]bool),
		Class:    make(map[int]TargetClass),
		GT:       make(map[int][]int),
		mirrorOf: make(map[int]int),
		pseudoOf: make(map[int]int),
	}
	if err := g.computeRegions(); err != nil {
		return nil, err
	}
	g.computeAdjustedBackward()
	g.classifyEndpoints()
	g.buildLP()
	return g, nil
}

// computeRegions fills V_m (must retime through, constraint (7)),
// V_n (must not retime through, constraint (6)) and V_r.
func (g *Graph) computeRegions() error {
	dbMax := g.T.DbMax()
	g.dbMax = dbMax
	fwd := g.Cfg.Scheme.ForwardLimit()
	bwd := g.Cfg.Scheme.BackwardLimit()
	for _, n := range g.C.Nodes {
		if n.Kind == netlist.KindOutput {
			g.Vn[n.ID] = true
			continue
		}
		inVm := dbMax[n.ID] > bwd+eps
		inVn := g.T.Df(n) > fwd+eps
		switch {
		case inVm && inVn:
			return fmt.Errorf("rgraph: %w: node %q needs a latch both before and after it (D^f=%.4g, D^b=%.4g); the stage cannot meet P=%.4g",
				ErrUnretimable, n.Name, g.T.Df(n), dbMax[n.ID], g.Cfg.Scheme.MaxStageDelay())
		case inVm:
			g.Vm[n.ID] = true
		case inVn:
			g.Vn[n.ID] = true
		default:
			g.Vr[n.ID] = true
		}
	}
	return nil
}

const eps = 1e-9

// requiredOf returns the endpoint's required time.
func (g *Graph) requiredOf(o *netlist.Node) float64 {
	if r, ok := g.Cfg.Required[o.ID]; ok {
		return r
	}
	return g.Cfg.Scheme.MaxStageDelay()
}

// computeAdjustedBackward fills dbAdj: like DbMax but with each endpoint
// offset by Π − R(t), so a latch position is legal against every
// downstream endpoint's own required time via one comparison against Π:
//
//	launch(u) + d(edge) + dbAdj(v) ≤ Π  ⟺  A(u,v,t) ≤ R(t) ∀t.
func (g *Graph) computeAdjustedBackward() {
	period := g.Cfg.Scheme.Period()
	db := make([]float64, len(g.C.Nodes))
	for i := range db {
		db[i] = math.Inf(-1)
	}
	for _, o := range g.C.Outputs {
		db[o.ID] = period - g.requiredOf(o)
	}
	topo := g.C.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if n.Kind == netlist.KindOutput {
			continue
		}
		for _, f := range n.Fanout {
			if math.IsInf(db[f.ID], -1) {
				continue
			}
			if d := g.T.EdgeDelay(n, f) + db[f.ID]; d > db[n.ID] {
				db[n.ID] = d
			}
		}
	}
	g.dbAdj = db
}

// launch is the Eq. (5) slave launch time for a latch at u's output:
// max{φ1+γ1+ClkToQ, D^f(u)+DToQ}.
func (g *Graph) launch(u *netlist.Node) float64 {
	l := g.Cfg.Scheme.SlaveOpen() + g.Cfg.Latch.ClkToQ
	if d := g.T.Df(u) + g.Cfg.Latch.DToQ; d > l {
		l = d
	}
	return l
}

// alapR returns the furthest-forward legal retiming: r = −1 everywhere
// except V_n. It bounds what retiming can achieve for each endpoint.
func (g *Graph) alapR() map[int]int {
	r := make(map[int]int)
	for _, n := range g.C.Nodes {
		if n.Kind != netlist.KindOutput && !g.Vn[n.ID] {
			r[n.ID] = -1
		}
	}
	return r
}

// classifyEndpoints labels every master endpoint NeverED / AlwaysED /
// Target and computes g(t) for the targets. One cone scratch serves
// every target, so the cut sets cost O(Σ|FIC(t)|) in all.
func (g *Graph) classifyEndpoints() {
	period := g.Cfg.Scheme.Period()
	initial := sta.AnalyzeLatched(g.T, netlist.InitialPlacement(g.C), g.Cfg.Scheme, g.Cfg.Latch)
	alap := sta.AnalyzeLatched(g.T, netlist.FromRetiming(g.C, g.alapR()), g.Cfg.Scheme, g.Cfg.Latch)
	sc := newCutScratch(g.T)
	for _, o := range g.C.Outputs {
		switch {
		case initial.EndpointArrival(o) <= period+eps:
			g.Class[o.ID] = NeverED
		case alap.EndpointArrival(o) > period+eps:
			g.Class[o.ID] = AlwaysED
		default:
			g.Class[o.ID] = Target
			g.GT[o.ID] = g.cutSet(sc, o)
			g.coneNodes += len(sc.cone.Nodes())
		}
	}
}

// cutScratch is the per-Build working set of cutSet: the backward cone
// plus generation stamps marking, for the current target, the raw cut
// members and the nodes that reach one of them.
type cutScratch struct {
	cone    *sta.Cone
	inCut   []uint32
	reaches []uint32
	gen     uint32
	cut     []int
}

func newCutScratch(t *sta.Timing) *cutScratch {
	n := len(t.C.Nodes)
	return &cutScratch{cone: t.NewCone(), inCut: make([]uint32, n), reaches: make([]uint32, n)}
}

// cutSet computes g(t) per Eq. (8–9): nodes v in the fan-in cone of t
// with a fanout position already meeting Π and a fanin position still
// violating it. Only the cone is visited, and nothing is allocated but
// the returned slice (nil when the cut is empty).
func (g *Graph) cutSet(sc *cutScratch, t *netlist.Node) []int {
	sc.cone.Walk(t)
	db := sc.cone.Db()
	cone := sc.cone.Nodes()
	period := g.Cfg.Scheme.Period()
	s := g.Cfg.Scheme
	l := g.Cfg.Latch
	sc.gen++ // one generation per target: cannot wrap within a Build
	sc.cut = sc.cut[:0]
	for _, v := range cone {
		if v.Kind == netlist.KindOutput {
			continue
		}
		// ∃ n ∈ FO(v): A(v,n,t) ≤ Π — equivalently, a latch at v's
		// output meets the period on at least one (in fact, by the
		// shared-latch physical model, on its worst) fanout.
		okForward := false
		for _, n := range v.Fanout {
			if math.IsNaN(db[n.ID]) {
				continue
			}
			if g.T.A(v, n, db, s, l) <= period+eps {
				okForward = true
				break
			}
		}
		if !okForward {
			continue
		}
		// ∃ k ∈ FI(v): A(k,v,t) > Π; for an input node the "fanin" is
		// the host, i.e. the latch at its initial position.
		violBehind := false
		if v.Kind == netlist.KindInput {
			launch := s.SlaveOpen() + l.ClkToQ
			if d := g.T.Opt.LaunchDelay + l.DToQ; d > launch {
				launch = d
			}
			violBehind = launch+db[v.ID] > period+eps
		} else {
			for _, k := range v.Fanin {
				if g.T.A(k, v, db, s, l) > period+eps {
					violBehind = true
					break
				}
			}
		}
		if violBehind {
			sc.inCut[v.ID] = sc.gen
			sc.cut = append(sc.cut, v.ID)
		}
	}

	// Keep only the frontier: drop members with another member strictly
	// downstream. The w_r ≥ 0 edge constraints already force
	// r(ancestor) ≤ r(descendant), so this is where the paper's reverse
	// DFS stops, yielding g(O9) = {G5, G6} rather than {I2, G3, G5, G6}
	// in Fig. 4. Any node reaching a cut member reaches t, so it lies in
	// the cone: one reverse sweep over the cone order is exact.
	for i := len(cone) - 1; i >= 0; i-- {
		n := cone[i]
		for _, f := range n.Fanout {
			if sc.inCut[f.ID] == sc.gen || sc.reaches[f.ID] == sc.gen {
				sc.reaches[n.ID] = sc.gen
				break
			}
		}
	}
	k := 0
	for _, id := range sc.cut {
		if sc.reaches[id] != sc.gen {
			sc.cut[k] = id
			k++
		}
	}
	if k == 0 {
		return nil
	}
	out := slices.Clone(sc.cut[:k])
	sort.Ints(out)
	return out
}

// edgeWeight is the initial slave-latch count on an edge: 1 on the
// virtual host→input edges, 0 elsewhere (Section III).
func edgeWeight(from *netlist.Node) int64 {
	if from == nil {
		return 1 // host → input
	}
	return 0
}

// buildLP assembles the difference-constraint LP of Eq. (10).
func (g *Graph) buildLP() {
	// Variable layout: one per circuit node, then mirrors, pseudos, host.
	g.varOf = make([]int, len(g.C.Nodes))
	idx := 0
	for _, n := range g.C.Nodes {
		g.varOf[n.ID] = idx
		idx++
	}
	type group struct {
		driver *netlist.Node // nil = host (input latches, unshared)
		sinks  []*netlist.Node
	}
	// Distinct sinks only: parallel pins share one edge. The groups
	// share one backing array; seenBy[id] == driver ID + 1 marks a sink
	// the current driver already has.
	fanouts := 0
	for _, n := range g.C.Nodes {
		fanouts += len(n.Fanout)
	}
	backing := make([]*netlist.Node, 0, fanouts)
	seenBy := make([]int, len(g.C.Nodes))
	groups := make([]group, 0, len(g.C.Nodes))
	for _, n := range g.C.Nodes {
		if len(n.Fanout) == 0 {
			continue
		}
		start := len(backing)
		for _, f := range n.Fanout {
			if seenBy[f.ID] != n.ID+1 {
				seenBy[f.ID] = n.ID + 1
				backing = append(backing, f)
			}
		}
		sinks := backing[start:len(backing):len(backing)]
		groups = append(groups, group{driver: n, sinks: sinks})
		if len(sinks) > 1 {
			g.mirrorOf[n.ID] = idx
			idx++
		}
	}
	var targets []int
	if g.Cfg.ResilientAware {
		for _, o := range g.C.Outputs {
			if g.Class[o.ID] == Target && len(g.GT[o.ID]) > 0 {
				targets = append(targets, o.ID)
			}
		}
		sort.Ints(targets)
		for _, id := range targets {
			g.pseudoOf[id] = idx
			idx++
		}
	}
	g.host = idx
	idx++
	g.numVars = idx

	lp := flow.NewDiffLP(g.numVars, g.host)

	// Objective weights: normally latch count dominates and movement is
	// a tie-break; under MovementPrimary the ordering flips (see Config).
	latchW, moveW := int64(Scale), int64(moveCost)
	if g.Cfg.MovementPrimary {
		latchW, moveW = 1, Scale
	}

	// Host → input edges: weight 1, one unshared latch each.
	for _, in := range g.C.Inputs {
		v := g.varOf[in.ID]
		lp.Constrain(g.host, v, edgeWeight(nil))
		lp.AddObjective(g.host, -latchW)
		lp.AddObjective(v, latchW)
	}
	// Output → host edges close the retiming cycle (weight 0).
	for _, o := range g.C.Outputs {
		lp.Constrain(g.varOf[o.ID], g.host, 0)
	}
	// Per-edge legality (the exact forms of constraints (6) and (7),
	// generalized to per-endpoint required times): a latch on edge (u,s)
	// sits at u's output, so data must stabilize there before the slave
	// closes (D^f(u) ≤ φ1+γ1+φ2) and the relaunched data must meet every
	// downstream master's required time (launch + edge + dbAdj ≤ Π).
	// Illegal edges get the reverse constraint r(s) − r(u) ≤ 0, pinning
	// their retimed weight to zero. This is finer-grained than the node
	// regions V_m/V_n, which remain as the (consistent) variable bounds.

	// Internal edges and fanout sharing.
	for _, grp := range groups {
		u := g.varOf[grp.driver.ID]
		for _, s := range grp.sinks {
			lp.Constrain(u, g.varOf[s.ID], edgeWeight(grp.driver))
			if !g.EdgeAllowed(grp.driver, s) {
				lp.Constrain(g.varOf[s.ID], u, 0)
			}
		}
		if len(grp.sinks) == 1 {
			// Single fanout: the register count on the edge is
			// w − r(u) + r(v).
			lp.AddObjective(u, -latchW)
			lp.AddObjective(g.varOf[grp.sinks[0].ID], latchW)
			continue
		}
		// Mirror node: registers on the fanout of u number
		// w_max − r(u) + r(m_u); the β=1/k breadths on the 2k edges
		// cancel to integer coefficients ±1.
		m := g.mirrorOf[grp.driver.ID]
		for _, s := range grp.sinks {
			// w(s→m_u) = w_max − w(u,s) = 0 for internal edges.
			lp.Constrain(g.varOf[s.ID], m, 0)
		}
		lp.AddObjective(u, -latchW)
		lp.AddObjective(m, latchW)
	}
	// Movement term: r(v) = −1 costs moveW per node. As a tie-break
	// (moveW = 1) it keeps latches near their initial positions among
	// equal-latch-cost optima; under MovementPrimary it dominates. The
	// secondary term can never outweigh one unit of the primary because
	// the node count stays far below Scale.
	if len(g.C.Nodes)*int(min(latchW, moveW)) < Scale/2 {
		for _, n := range g.C.Nodes {
			if n.Kind != netlist.KindOutput {
				lp.AddObjective(g.varOf[n.ID], -moveW)
			}
		}
	}

	// Pseudo nodes: g(t) → P(t) → host with the −c reward (Eq. 10).
	cScaled := int64(math.Round(g.Cfg.EDLCost * Scale))
	for _, id := range targets {
		p := g.pseudoOf[id]
		for _, gid := range g.GT[id] {
			lp.Constrain(g.varOf[gid], p, 0)
		}
		lp.Constrain(p, g.host, 0)
		// −c·(r(h) − r(P(t))) = +c·r(P(t)) − c·r(h).
		lp.AddObjective(p, cScaled)
		lp.AddObjective(g.host, -cScaled)
	}

	// Region bounds. Inputs whose initial latch position already misses
	// a required time must retime forward (the V_m rule, per-endpoint).
	for _, n := range g.C.Nodes {
		v := g.varOf[n.ID]
		switch {
		case g.Vm[n.ID]:
			lp.Bound(v, -1, -1)
		case n.Kind == netlist.KindInput && !g.InputAllowed(n):
			lp.Bound(v, -1, -1)
		case g.Vn[n.ID]:
			lp.Bound(v, 0, 0)
		default:
			lp.Bound(v, -1, 0)
		}
	}
	// Bound the auxiliary variables in sorted-key order: constraint
	// order fixes the dual network's arc order and hence the simplex
	// pivot path, so map iteration here would make solver-effort
	// counters (and traces) differ between otherwise identical runs.
	for _, m := range sortedValues(g.mirrorOf) {
		lp.Bound(m, -1, 0)
	}
	for _, p := range sortedValues(g.pseudoOf) {
		lp.Bound(p, -1, 0)
	}
	lp.SetPivotLimit(g.Cfg.PivotLimit)
	g.lp = lp
}

// sortedValues returns m's values in ascending key order, for the
// deterministic iteration buildLP needs.
func sortedValues(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	vals := make([]int, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return vals
}

// EdgeAllowed reports whether edge (u,v) may legally carry a slave latch:
// data stabilizes at u's output before the slave closes (constraint (6)),
// and the relaunched data meets every downstream master's required time
// (constraint (7), generalized through Eq. (5) launch semantics).
func (g *Graph) EdgeAllowed(u, v *netlist.Node) bool {
	if g.T.Df(u) > g.Cfg.Scheme.ForwardLimit()+eps {
		return false
	}
	if math.IsInf(g.dbAdj[v.ID], -1) {
		return true // no endpoint downstream; any latch is harmless
	}
	return g.launch(u)+g.T.EdgeDelay(u, v)+g.dbAdj[v.ID] <= g.Cfg.Scheme.Period()+eps
}

// InputAllowed reports whether input i may keep its slave latch at the
// initial position (directly after the master's Q pin).
func (g *Graph) InputAllowed(i *netlist.Node) bool {
	if math.IsInf(g.dbAdj[i.ID], -1) {
		return true
	}
	return g.launch(i)+g.dbAdj[i.ID] <= g.Cfg.Scheme.Period()+eps
}

// NumVariables returns the LP variable count (nodes + mirrors + pseudos
// + host).
func (g *Graph) NumVariables() int { return g.numVars }

// NumTargets returns the number of target masters, each of which got a
// cut set g(t) (empty ones included).
func (g *Graph) NumTargets() int { return len(g.GT) }

// NumConeNodes returns the fan-in cone sizes summed over the targets:
// the node count the cut-set pass walked, which bounds its cost.
func (g *Graph) NumConeNodes() int { return g.coneNodes }

// NumConstraints returns the LP constraint count.
func (g *Graph) NumConstraints() int { return g.lp.NumConstraints() }

// LP returns the difference LP the graph solves, for callers that want
// to inspect or solve the program themselves. It must not be modified.
func (g *Graph) LP() *flow.DiffLP { return g.lp }

// PreflightLP runs the flow-solver admission checks on the assembled LP
// without solving it: the dual transshipment network must conserve flow
// (flow.ErrUnbalanced otherwise) and stay inside the solver's magnitude
// bounds (flow.ErrOverflow). The lint flow-conservation rule calls this
// to reject a doomed netlist before a solve is attempted.
func (g *Graph) PreflightLP() error {
	if err := g.lp.Preflight(); err != nil {
		return fmt.Errorf("rgraph: %w", err)
	}
	return nil
}

// SolveCtx runs the LP through the selected flow method and lifts the
// duals back to a slave-latch placement. The context bounds the solve;
// cancellation surfaces as an error wrapping ctx.Err().
func (g *Graph) SolveCtx(ctx context.Context, method flow.Method) (*Solution, error) {
	sp, ctx := obs.StartSpan(ctx, "rgraph.solve")
	defer sp.End()
	sp.Gauge("variables", int64(g.numVars))
	sp.Gauge("constraints", int64(g.lp.NumConstraints()))
	sp.Gauge("targets", int64(len(g.pseudoOf)))
	res, err := g.lp.SolveCtx(ctx, method)
	if err != nil {
		sp.Fail(err)
		return nil, fmt.Errorf("rgraph: %w", err)
	}
	sol := &Solution{
		R:              make(map[int]int),
		PseudoFired:    make(map[int]bool),
		Objective:      float64(res.Objective) / Scale,
		Method:         res.Method,
		Fallback:       res.Fallback,
		FallbackReason: res.FallbackReason,
		Certified:      res.Certified,
	}
	// The movement tie-break contributes less than one latch unit in
	// total; Objective remains the latch-cost view.
	for _, n := range g.C.Nodes {
		sol.R[n.ID] = int(res.R[g.varOf[n.ID]])
	}
	for id, p := range g.pseudoOf {
		sol.PseudoFired[id] = res.R[p] == -1
	}
	asp, _ := obs.StartSpan(ctx, "placement.apply")
	defer asp.End()
	sol.Placement = netlist.FromRetiming(g.C, sol.R)
	if err := sol.Placement.Validate(g.C); err != nil {
		asp.Fail(err)
		asp.End()
		return nil, fmt.Errorf("rgraph: solver produced an illegal cut: %w", err)
	}
	asp.Gauge("slaves", int64(sol.Placement.SlaveCount()))
	asp.End()
	return sol, nil
}
