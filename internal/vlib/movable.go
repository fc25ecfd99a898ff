package vlib

import (
	"context"
	"fmt"
	"math"

	"relatch/internal/clocking"
	"relatch/internal/netlist"
	"relatch/internal/sta"
)

// MovableResult pairs the fixed-master RVL-RAR run with the run obtained
// after releasing the master "do-not-retime" constraint (Section VI-E,
// Table IX): master latches are moved by classic flip-flop retiming
// transforms on the sequential design before cutting, the way the
// commercial flow is free to do when the constraint is dropped.
type MovableResult struct {
	Fixed   *Result
	Movable *Result
	// Moves is the number of accepted master moves; Tried counts all
	// candidates examined.
	Moves int
	Tried int
}

// RetimeMovableMasterCtx runs fixed-master RVL-RAR on the design's cut and
// then re-runs it after a hill climb over legal master (flip-flop)
// moves: a forward move collapses the registers feeding a gate into one
// at its output, a backward move splits a gate's output register onto
// its inputs. Moves are accepted when they shrink the estimated
// sequential cost (2 latches per flop plus c per near-critical endpoint)
// without breaking the stage budget. maxTrials bounds the search. The
// hill climb checks for cancellation between trials, and both RVL-RAR
// runs observe it through their flow solves.
func RetimeMovableMasterCtx(ctx context.Context, sc *netlist.SeqCircuit, scheme clocking.Scheme, opt Options, maxTrials int) (*MovableResult, error) {
	if maxTrials <= 0 {
		maxTrials = 64
	}
	cut0, err := sc.Cut()
	if err != nil {
		return nil, err
	}
	fixed, err := RetimeCtx(ctx, cut0, opt, RVL)
	if err != nil {
		return nil, err
	}
	res := &MovableResult{Fixed: fixed}

	cur := sc.Clone()
	curScore, err := masterScore(cur, scheme, opt)
	if err != nil {
		// The starting design sits exactly at the stage budget; no move
		// may consume headroom, which the per-candidate check enforces.
		curScore = math.Inf(1)
	}
	for trial := 0; trial < maxTrials; trial++ {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("vlib: movable-master search cancelled after %d trials: %w", trial, ctx.Err())
		default:
		}
		move := findMove(cur, trial)
		if move == nil {
			break
		}
		res.Tried++
		cand := cur.Clone()
		if err := applyMove(cand, move.gateID, move.forward); err != nil {
			continue
		}
		score, err := masterScore(cand, scheme, opt)
		if err != nil {
			continue // move broke the stage budget or legality
		}
		if score < curScore-1e-9 {
			cur = cand
			curScore = score
			res.Moves++
		}
	}

	cutN, err := cur.Cut()
	if err != nil {
		return nil, err
	}
	movable, err := RetimeCtx(ctx, cutN, opt, RVL)
	if err != nil {
		return nil, err
	}
	res.Movable = movable
	return res, nil
}

// masterScore estimates the sequential cost of a master placement: two
// latches per boundary register plus c per near-critical endpoint, in
// latch-area units. It errors when the design no longer fits the stage
// budget under the (fixed) clock scheme.
func masterScore(sc *netlist.SeqCircuit, scheme clocking.Scheme, opt Options) (float64, error) {
	c, err := sc.Cut()
	if err != nil {
		return 0, err
	}
	tm := sta.Analyze(c, sta.DefaultOptions(c.Lib))
	nce := 0
	margin := c.Lib.BaseLatch.DToQ
	for _, o := range c.Outputs {
		a := tm.Arrival(o)
		if a > scheme.MaxStageDelay()-margin+1e-9 {
			return 0, fmt.Errorf("vlib: %w: movable master breaks the stage budget at %s", ErrNotMovable, o.Name)
		}
		if a > scheme.Period() {
			nce++
		}
	}
	return 2*float64(c.FlopCount()) + opt.EDLCost*float64(nce), nil
}

type moveSpec struct {
	gateID  int
	forward bool
}

// findMove scans for the trial-th legal move candidate, preferring
// forward moves (they can merge registers).
func findMove(sc *netlist.SeqCircuit, trial int) *moveSpec {
	var cands []moveSpec
	for _, n := range sc.Nodes {
		if n.Kind != netlist.SeqGate {
			continue
		}
		if forwardMovable(n) {
			cands = append(cands, moveSpec{gateID: n.ID, forward: true})
		}
		if backwardMovable(n) {
			cands = append(cands, moveSpec{gateID: n.ID, forward: false})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	m := cands[trial%len(cands)]
	return &m
}

// forwardMovable: every fanin is a flop whose only fanout is this gate.
// Moves are restricted to single-input gates: merging several flops into
// one changes the state encoding, which the flow rules out to preserve
// the circuit's initial state — the same concern that made the paper fix
// the master latches in the first place (Section III, [15]). This is why
// releasing the constraint buys so little in Table IX.
func forwardMovable(g *netlist.SeqNode) bool {
	if len(g.Fanin) != 1 {
		return false
	}
	f := g.Fanin[0]
	return f.Kind == netlist.SeqFF && len(f.Fanout) == 1
}

// backwardMovable: the gate has one input and every fanout is a flop
// (whose D is this gate); see forwardMovable for the single-input
// state-preservation restriction.
func backwardMovable(g *netlist.SeqNode) bool {
	if len(g.Fanin) != 1 || len(g.Fanout) == 0 {
		return false
	}
	for _, f := range g.Fanout {
		if f.Kind != netlist.SeqFF {
			return false
		}
	}
	return true
}

// applyMove performs the flip-flop retiming transform in place.
func applyMove(sc *netlist.SeqCircuit, gateID int, forward bool) error {
	g := sc.Nodes[gateID]
	if g.Kind != netlist.SeqGate {
		return fmt.Errorf("vlib: %w: node %d is not a gate", ErrBadInput, gateID)
	}
	dead := map[*netlist.SeqNode]bool{}
	if forward {
		if !forwardMovable(g) {
			return fmt.Errorf("vlib: %w: gate %s is not forward-movable", ErrNotMovable, g.Name)
		}
		// g consumes the flops' D drivers directly; one new flop
		// captures g; g's old consumers read the new flop.
		newFF := &netlist.SeqNode{
			ID:   len(sc.Nodes),
			Name: fmt.Sprintf("mv%d_%s", len(sc.Nodes), g.Name),
			Kind: netlist.SeqFF,
		}
		sc.Nodes = append(sc.Nodes, newFF)
		sc.FFs = append(sc.FFs, newFF)
		for p, f := range g.Fanin {
			drv := f.Fanin[0]
			g.Fanin[p] = drv
			replaceFanout(drv, f, g)
			dead[f] = true
		}
		newFF.Fanin = []*netlist.SeqNode{g}
		newFF.Fanout = g.Fanout
		for _, cons := range g.Fanout {
			replaceFanin(cons, g, newFF)
		}
		g.Fanout = []*netlist.SeqNode{newFF}
	} else {
		if !backwardMovable(g) {
			return fmt.Errorf("vlib: %w: gate %s is not backward-movable", ErrNotMovable, g.Name)
		}
		// One new flop per distinct fanin; g's output flops disappear
		// and their consumers read g directly.
		newFFOf := map[*netlist.SeqNode]*netlist.SeqNode{}
		for p, drv := range g.Fanin {
			ff, ok := newFFOf[drv]
			if !ok {
				ff = &netlist.SeqNode{
					ID:    len(sc.Nodes),
					Name:  fmt.Sprintf("mv%d_%s_%d", len(sc.Nodes), g.Name, p),
					Kind:  netlist.SeqFF,
					Fanin: []*netlist.SeqNode{drv},
				}
				sc.Nodes = append(sc.Nodes, ff)
				sc.FFs = append(sc.FFs, ff)
				replaceFanout(drv, g, ff)
				newFFOf[drv] = ff
			} else if p > 0 {
				// The driver already feeds the new flop; drop the
				// extra fanout reference to g.
				removeFanout(drv, g)
			}
			g.Fanin[p] = ff
			ff.Fanout = append(ff.Fanout, g)
		}
		oldFanouts := g.Fanout
		g.Fanout = nil
		for _, ff := range oldFanouts {
			dead[ff] = true
			for _, cons := range ff.Fanout {
				replaceFanin(cons, ff, g)
				g.Fanout = append(g.Fanout, cons)
			}
		}
	}
	sc.Compact(dead)
	return nil
}

func replaceFanin(n, old, new2 *netlist.SeqNode) {
	for i, f := range n.Fanin {
		if f == old {
			n.Fanin[i] = new2
		}
	}
}

func replaceFanout(n, old, new2 *netlist.SeqNode) {
	for i, f := range n.Fanout {
		if f == old {
			n.Fanout[i] = new2
			return
		}
	}
}

func removeFanout(n, x *netlist.SeqNode) {
	for i, f := range n.Fanout {
		if f == x {
			n.Fanout = append(n.Fanout[:i], n.Fanout[i+1:]...)
			return
		}
	}
}
