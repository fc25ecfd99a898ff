package sta

import (
	"math"

	"relatch/internal/netlist"
)

// Cone is reusable scratch for the backward pass over one target's
// fan-in cone FIC(t). Walk fills it for a target in O(|FIC(t)|): an
// iterative fanin DFS collects the cone in topological order, then one
// reverse sweep over that order computes D^b(v,t). Membership is a
// generation stamp and the D^b slice is reset only where the previous
// cone wrote it, so a Cone walked once per target costs nothing in the
// size of the whole circuit after NewCone. A Cone is not safe for
// concurrent use.
type Cone struct {
	t     *Timing
	db    []float64 // D^b(v, target); NaN outside the current cone
	stamp []uint32  // stamp[id] == gen ⇔ node id is in the current cone
	gen   uint32
	order []*netlist.Node // the cone, fanins before fanouts
	stack []coneFrame
}

// coneFrame is one DFS stack entry: a node and the next fanin to visit.
type coneFrame struct {
	n    *netlist.Node
	next int
}

// NewCone allocates cone scratch sized to the analyzed circuit.
func (t *Timing) NewCone() *Cone {
	n := len(t.C.Nodes)
	db := make([]float64, n)
	for i := range db {
		db[i] = math.NaN()
	}
	return &Cone{t: t, db: db, stamp: make([]uint32, n)}
}

// Walk makes target's fan-in cone the current one and computes its
// backward delays. D^b(v,t) is the maximum delay from the *output* of v
// to t, so a node directly driving the target has D^b = 0.
func (cn *Cone) Walk(target *netlist.Node) {
	for _, n := range cn.order {
		cn.db[n.ID] = math.NaN()
	}
	cn.order = cn.order[:0]
	cn.gen++
	if cn.gen == 0 {
		clear(cn.stamp)
		cn.gen = 1
	}

	// Post-order fanin DFS: a node is emitted once all its fanins are,
	// so order is topological within the cone.
	cn.stamp[target.ID] = cn.gen
	cn.stack = append(cn.stack[:0], coneFrame{n: target})
	for len(cn.stack) > 0 {
		top := &cn.stack[len(cn.stack)-1]
		if top.next < len(top.n.Fanin) {
			f := top.n.Fanin[top.next]
			top.next++
			if cn.stamp[f.ID] != cn.gen {
				cn.stamp[f.ID] = cn.gen
				cn.stack = append(cn.stack, coneFrame{n: f})
			}
			continue
		}
		cn.order = append(cn.order, top.n)
		cn.stack = cn.stack[:len(cn.stack)-1]
	}

	// Reverse sweep: every fanout inside the cone is settled before its
	// driver. D^b is a max over the same sums in any valid order.
	cn.db[target.ID] = 0
	for i := len(cn.order) - 1; i >= 0; i-- {
		n := cn.order[i]
		if n == target {
			continue
		}
		best := math.Inf(-1)
		for _, f := range n.Fanout {
			if cn.stamp[f.ID] != cn.gen {
				continue
			}
			if d := cn.t.EdgeDelay(n, f) + cn.db[f.ID]; d > best {
				best = d
			}
		}
		if !math.IsInf(best, -1) {
			cn.db[n.ID] = best
		}
	}
}

// Db returns the current cone's backward delays indexed by node ID, NaN
// outside the cone — the db argument A and AFrom take. The slice is the
// Cone's own and is overwritten by the next Walk.
func (cn *Cone) Db() []float64 { return cn.db }

// Nodes returns the current cone in topological order (fanins before
// fanouts; the target last). The slice is overwritten by the next Walk.
func (cn *Cone) Nodes() []*netlist.Node { return cn.order }
