package flow

import (
	"context"
	"fmt"
	"math"

	"relatch/internal/obs"
)

// SolveSSPCtx computes a min-cost flow by successive shortest paths with
// Dijkstra over reduced costs. Negative-cost arcs are handled by the
// classical saturation transformation: each is filled to capacity up
// front (adjusting node imbalances), after which every residual cost is
// non-negative and pure Dijkstra augmentation is exact. Cancellation
// and deadline expiry are observed between augmentation rounds and
// surface as errors wrapping ctx.Err().
func (nw *Network) SolveSSPCtx(ctx context.Context) (sol *Solution, err error) {
	// Counters accumulate in locals and land on the span once, in the
	// deferred close: the augmentation loop stays instrumentation-free.
	sp, ctx := obs.StartSpan(ctx, "flow.ssp")
	var augmentingPaths, unitsRouted int64
	defer func() {
		sp.Add("augmenting_paths", augmentingPaths)
		sp.Add("units_routed", unitsRouted)
		sp.Fail(err)
		sp.End()
	}()
	if err := nw.checkBalanced(); err != nil {
		return nil, err
	}
	if err := nw.checkMagnitudes(); err != nil {
		return nil, err
	}
	sp.Gauge("nodes", int64(nw.n))
	sp.Gauge("arcs", int64(len(nw.arcs)))
	// Residual arc representation: pairs (2i, 2i+1) are the forward and
	// backward residuals of input arc i. Super source S and sink T are
	// appended as nodes n and n+1.
	n := nw.n + 2
	s, t := nw.n, nw.n+1

	type rArc struct {
		to   int
		cap  int64
		cost int64
	}
	var arcs []rArc
	head := make([][]int, n)
	addPair := func(u, v int, capacity, cost int64) {
		head[u] = append(head[u], len(arcs))
		arcs = append(arcs, rArc{to: v, cap: capacity, cost: cost})
		head[v] = append(head[v], len(arcs))
		arcs = append(arcs, rArc{to: u, cap: 0, cost: -cost})
	}

	// satCap bounds the useful flow on any single arc of a *bounded*
	// problem: every path flow is limited by total demand and every
	// cycle flow by some finite capacity on the cycle. Saturating
	// negative uncapacitated arcs at satCap instead of Unbounded keeps
	// the transformed supplies within integer range. (For an unbounded
	// problem the result is a finite stand-in; the difference-LP layer
	// rejects it when the extracted duals violate a constraint.)
	var satCap int64 = 1
	for v := range nw.demand {
		if nw.demand[v] > 0 {
			satCap += nw.demand[v]
		}
	}
	for _, a := range nw.arcs {
		if a.Cap != Unbounded {
			satCap += a.Cap
		}
	}

	imbalance := make([]int64, nw.n)
	copy(imbalance, nw.demand)
	for _, a := range nw.arcs {
		addPair(a.From, a.To, a.Cap, a.Cost)
		if a.Cost < 0 {
			// Saturate: the arc starts full, its backward residual open.
			sat := a.Cap
			if sat > satCap {
				sat = satCap
			}
			// The forward residual closes entirely: capacity beyond
			// satCap is unusable in a bounded problem, and leaving it
			// open would reintroduce a negative-cost arc.
			i := len(arcs) - 2
			arcs[i].cap = 0
			arcs[i+1].cap = sat
			imbalance[a.To] -= sat
			imbalance[a.From] += sat
		}
	}

	var total int64
	for v, d := range imbalance {
		if d < 0 {
			addPair(s, v, -d, 0)
		} else if d > 0 {
			addPair(v, t, d, 0)
			total += d
			if total > Unbounded {
				return nil, fmt.Errorf("flow: %w: ssp supply overflow after negative-arc saturation", ErrOverflow)
			}
		}
	}

	const inf = math.MaxInt64 / 4
	pot := make([]int64, n)
	dist := make([]int64, n)
	parent := make([]int, n)

	// The priority queue is a typed binary heap hoisted out of the
	// augmentation loop and reset with [:0] each round: container/heap
	// would box every pqItem through its interface{} Push/Pop (one heap
	// allocation per queue operation), which alloc_test.go's baseline
	// forbids on this path.
	var pq sspHeap
	var sent int64
	//relint:hot
	for sent < total {
		augmentingPaths++
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("flow: ssp cancelled after routing %d of %d units: %w", sent, total, ctx.Err())
		default:
		}
		// Dijkstra on reduced costs from s.
		for v := range dist {
			dist[v] = inf
			parent[v] = -1
		}
		dist[s] = 0
		pq = pq[:0]
		pq.push(s, 0)
		for len(pq) > 0 {
			it := pq.pop()
			if it.d > dist[it.v] {
				continue
			}
			for _, ai := range head[it.v] {
				a := arcs[ai]
				if a.cap <= 0 {
					continue
				}
				rc := a.cost + pot[it.v] - pot[a.to]
				if nd := it.d + rc; nd < dist[a.to] {
					dist[a.to] = nd
					parent[a.to] = ai
					pq.push(a.to, nd)
				}
			}
		}
		if dist[t] >= inf {
			return nil, fmt.Errorf("flow: %w: only %d of %d units routable", ErrInfeasible, sent, total)
		}
		// Potential update capped at dist(t) keeps reduced costs valid
		// for nodes Dijkstra did not settle this round.
		for v := range pot {
			d := dist[v]
			if d > dist[t] {
				d = dist[t]
			}
			pot[v] += d
		}
		// Bottleneck along the path.
		push := total - sent
		for v := t; v != s; {
			ai := parent[v]
			if arcs[ai].cap < push {
				push = arcs[ai].cap
			}
			v = arcs[ai^1].to
		}
		for v := t; v != s; {
			ai := parent[v]
			arcs[ai].cap -= push
			arcs[ai^1].cap += push
			v = arcs[ai^1].to
		}
		sent += push
		unitsRouted = sent
	}

	sol = &Solution{Flow: make([]int64, len(nw.arcs))}
	for i, a := range nw.arcs {
		// Flow on input arc i is the residual capacity of its backward arc.
		x := arcs[2*i+1].cap
		sol.Flow[i] = x
		sol.Cost += a.Cost * x
	}
	if err := nw.verify(sol); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	sol.Potential = nw.residualPotentials(sol.Flow, nw.potentialRoot())
	return sol, nil
}

// potentialRoot picks the node potentials are normalized against: the
// highest-index node, which the difference-constraint layer reserves for
// its host/anchor variable. The choice only shifts potentials uniformly.
func (nw *Network) potentialRoot() int { return nw.n - 1 }

type pqItem struct {
	v int
	d int64
}

// sspHeap is a min-heap on pqItem.d with concrete-typed push/pop —
// deliberately not a container/heap implementation, whose interface{}
// Push/Pop would box every item (see the hot-loop comment in
// SolveSSPCtx).
type sspHeap []pqItem

func (h *sspHeap) push(v int, d int64) {
	*h = append(*h, pqItem{v: v, d: d})
	hp := *h
	for i := len(hp) - 1; i > 0; {
		p := (i - 1) / 2
		if hp[p].d <= hp[i].d {
			break
		}
		hp[p], hp[i] = hp[i], hp[p]
		i = p
	}
}

func (h *sspHeap) pop() pqItem {
	hp := *h
	it := hp[0]
	n := len(hp) - 1
	hp[0] = hp[n]
	hp = hp[:n]
	*h = hp
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && hp[l].d < hp[small].d {
			small = l
		}
		if r < n && hp[r].d < hp[small].d {
			small = r
		}
		if small == i {
			break
		}
		hp[i], hp[small] = hp[small], hp[i]
		i = small
	}
	return it
}
