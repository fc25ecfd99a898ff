package flow

import (
	"context"
	"fmt"

	"relatch/internal/ints"
	"relatch/internal/obs"
)

// arcState tracks where a non-tree arc sits.
type arcState int8

const (
	atLower arcState = iota
	inTree
	atUpper
)

// SolveSimplexCtx computes a min-cost flow with the primal network simplex
// method (the paper's solver, Section IV-D). A big-M artificial star
// forms the initial spanning-tree basis. Entering arcs are chosen by
// block search over reduced costs, falling back to Bland's rule under
// long degenerate runs, which guarantees termination.
//
// The basis is stored as a preorder thread (Király & Kovács, "Efficient
// implementations of minimum-cost flow algorithms", 2012): thread and
// revThread link the nodes in depth-first preorder, succNum holds
// subtree sizes and lastSucc the last node of each subtree, so every
// subtree is one contiguous thread segment. The join of a pivot cycle is
// found by subtree sizes. A tree update cuts the leaving subtree out of
// the thread, re-roots it along the stem from the entering endpoint,
// splices it in below the other endpoint and shifts its potentials by
// one constant σ; nothing outside the moved subtree and the two paths to
// the join is touched.
//
// The leaving arc is the first arc of strictly smaller residual in a
// walk that merges the two sides of the cycle deepest first, depth being
// the distance to the join. On equal depth the side that starts at the
// head of the push (v below) goes first, and the entering arc wins ties
// against tree arcs. This rule fixes the pivot path, and with it which
// optimum is returned among ties.
//
// Cancellation and deadline expiry are observed between pivots and
// surface as errors wrapping ctx.Err().
func (nw *Network) SolveSimplexCtx(ctx context.Context) (sol *Solution, err error) {
	// Counters accumulate in locals and land on the span once, in the
	// deferred close: the pivot loop itself stays instrumentation-free.
	sp, ctx := obs.StartSpan(ctx, "flow.simplex")
	var pivotCount, degenerateCount, treeUpdateNodes, pricingScans int
	defer func() {
		sp.Add("pivots", int64(pivotCount))
		sp.Add("degenerate_pivots", int64(degenerateCount))
		sp.Add("tree_update_nodes", int64(treeUpdateNodes))
		sp.Add("pricing_scans", int64(pricingScans))
		sp.Fail(err)
		sp.End()
	}()
	if err := nw.checkBalanced(); err != nil {
		return nil, err
	}
	if err := nw.checkMagnitudes(); err != nil {
		return nil, err
	}
	n := nw.n
	sp.Gauge("nodes", int64(n))
	sp.Gauge("arcs", int64(len(nw.arcs)))
	root := n
	m := len(nw.arcs)

	type sArc struct {
		from, to  int
		cost, cap int64
	}
	arcs := make([]sArc, m, m+n)
	var costSum int64
	for i, a := range nw.arcs {
		arcs[i] = sArc{from: a.From, to: a.To, cost: a.Cost, cap: a.Cap}
		costSum += ints.Abs64(a.Cost)
	}
	bigM := costSum + 1

	flow := make([]int64, m, m+n)
	state := make([]arcState, m, m+n)

	parent := make([]int, n+1)
	parentArc := make([]int, n+1)
	pot := make([]int64, n+1)
	// The thread is cyclic through root; root stays the tree root.
	thread := make([]int, n+1)
	revThread := make([]int, n+1)
	succNum := make([]int, n+1)
	lastSucc := make([]int, n+1)

	parent[root] = -1
	parentArc[root] = -1
	last := root
	for v := 0; v < n; v++ {
		b := -nw.demand[v] // supply convention: outflow − inflow = b
		ai := len(arcs)
		if b >= 0 {
			arcs = append(arcs, sArc{from: v, to: root, cost: bigM, cap: Unbounded})
			flow = append(flow, b)
			pot[v] = bigM
		} else {
			arcs = append(arcs, sArc{from: root, to: v, cost: bigM, cap: Unbounded})
			flow = append(flow, -b)
			pot[v] = -bigM
		}
		state = append(state, inTree)
		parent[v] = root
		parentArc[v] = ai
		thread[last] = v
		revThread[v] = last
		succNum[v] = 1
		lastSucc[v] = v
		last = v
	}
	thread[last] = root
	revThread[root] = last
	succNum[root] = n + 1
	lastSucc[root] = last

	reduced := func(i int) int64 {
		a := arcs[i]
		return a.cost - pot[a.from] + pot[a.to]
	}

	total := len(arcs)
	blockSize := 64
	for blockSize*blockSize < total {
		blockSize++
	}
	cursor := 0
	degenerate := 0
	const degenerateLimit = 1 << 14
	maxPivots := 200*total + 20000
	if nw.pivotLimit > 0 {
		maxPivots = nw.pivotLimit
	}

	// Residual capacity of a tree step, pushing from node w to its
	// parent (up=true) or from the parent into w (up=false). Hoisted out
	// of the pivot loop: a closure literal there would allocate every
	// pivot. It reads arcs/flow/parentArc through the captured slice
	// headers, which never change identity after this point.
	stepResidual := func(w int, up bool) int64 {
		ai := parentArc[w]
		a := arcs[ai]
		aligned := (a.from == w) == up
		if aligned {
			if a.cap == Unbounded {
				return Unbounded
			}
			return a.cap - flow[ai]
		}
		return flow[ai]
	}

	// Stem scratch for the tree update: stem[i] is the i-th node on the
	// path from the entering endpoint up to the root of the leaving
	// subtree, with its parent arc and thread bookkeeping as they were
	// before the update. A path has at most n+1 nodes, so the pivot loop
	// writes it by index and never grows it.
	type stemNode struct {
		node, arc int
		// last, rev, next and size are lastSucc[node],
		// revThread[node], thread[lastSucc[node]] and succNum[node].
		last, rev, next, size int
	}
	stem := make([]stemNode, n+1)

	//relint:hot
	for pivots := 0; ; pivots++ {
		pivotCount = pivots
		if pivots > maxPivots {
			return nil, fmt.Errorf("flow: %w: simplex exceeded %d pivots", ErrPivotLimit, maxPivots)
		}
		if pivots&255 == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("flow: simplex cancelled after %d pivots: %w", pivots, ctx.Err())
			default:
			}
		}
		// Entering arc selection.
		entering := -1
		var bestViol int64
		if degenerate > degenerateLimit {
			// Bland's rule: first violating index.
			for i := 0; i < total; i++ {
				pricingScans++
				if state[i] == inTree {
					continue
				}
				rc := reduced(i)
				if (state[i] == atLower && rc < 0) || (state[i] == atUpper && rc > 0) {
					entering = i
					break
				}
			}
		} else {
			scanned := 0
			for scanned < total && entering < 0 {
				for k := 0; k < blockSize; k++ {
					i := cursor
					cursor++
					if cursor == total {
						cursor = 0
					}
					if state[i] == inTree {
						continue
					}
					rc := reduced(i)
					var viol int64
					if state[i] == atLower && rc < 0 {
						viol = -rc
					} else if state[i] == atUpper && rc > 0 {
						viol = rc
					}
					if viol > bestViol {
						bestViol = viol
						entering = i
					}
				}
				scanned += blockSize
			}
			pricingScans += scanned
		}
		if entering < 0 {
			break // optimal
		}

		// Push direction: from u to v in residual terms.
		ea := arcs[entering]
		u, v := ea.from, ea.to
		if state[entering] == atUpper {
			u, v = v, u
		}

		// Join of the cycle: subtree sizes strictly grow toward the
		// root, so the side with the smaller subtree cannot be the join
		// and steps up. The step counts are each side's distance to it.
		x, y := v, u
		dx, dy := 0, 0
		for x != y {
			if succNum[x] < succNum[y] {
				x = parent[x]
				dx++
			} else {
				y = parent[y]
				dy++
			}
		}
		join := x

		// Leaving arc: walk both sides to the join, deeper side first
		// and the v side on ties, keeping the first strictly smallest
		// residual.
		delta := ea.cap
		if state[entering] == atUpper {
			delta = flow[entering]
		} else if ea.cap != Unbounded {
			delta = ea.cap - flow[entering]
		} else {
			delta = Unbounded
		}
		leaving := entering
		leavingOnV := false
		x, y = v, u
		for dx > 0 || dy > 0 {
			if dx >= dy {
				if r := stepResidual(x, true); r < delta {
					delta = r
					leaving = parentArc[x]
					leavingOnV = true
				}
				x = parent[x]
				dx--
			} else {
				if r := stepResidual(y, false); r < delta {
					delta = r
					leaving = parentArc[y]
					leavingOnV = false
				}
				y = parent[y]
				dy--
			}
		}
		if delta == Unbounded {
			return nil, fmt.Errorf("flow: %w: negative-cost cycle of infinite capacity", ErrUnbounded)
		}
		if delta == 0 {
			degenerate++
			degenerateCount++
		} else {
			degenerate = 0
		}

		// Apply the flow change around the cycle.
		if delta > 0 {
			if state[entering] == atUpper {
				flow[entering] -= delta
			} else {
				flow[entering] += delta
			}
			for x := v; x != join; x = parent[x] {
				ai := parentArc[x]
				if arcs[ai].from == x {
					flow[ai] += delta
				} else {
					flow[ai] -= delta
				}
			}
			for y := u; y != join; y = parent[y] {
				ai := parentArc[y]
				if arcs[ai].to == y {
					flow[ai] += delta
				} else {
					flow[ai] -= delta
				}
			}
		}

		if leaving == entering {
			// The entering arc saturated; it swaps bounds and the tree
			// is unchanged.
			if state[entering] == atLower {
				state[entering] = atUpper
			} else {
				state[entering] = atLower
			}
			continue
		}

		// Tree update. Removing the leaving arc cuts off the subtree S
		// rooted at yl; p is the entering endpoint inside S (on the side
		// where the leaving arc was found) and q the one outside.
		la := arcs[leaving]
		yl := la.from
		if parent[la.to] == la.from {
			yl = la.to
		}
		if flow[leaving] == 0 {
			state[leaving] = atLower
		} else {
			state[leaving] = atUpper
		}
		p, q := u, v
		if leavingOnV {
			p, q = v, u
		}
		k := 0
		for w := p; ; w = parent[w] {
			st := &stem[k]
			st.node, st.arc = w, parentArc[w]
			st.last, st.rev, st.size = lastSucc[w], revThread[w], succNum[w]
			st.next = thread[st.last]
			if w == yl {
				break
			}
			k++
		}
		size := stem[k].size
		treeUpdateNodes += size

		// Cut S out of the thread and out of its old ancestors.
		before, after := stem[k].rev, stem[k].next
		thread[before] = after
		revThread[after] = before
		for w := parent[yl]; w != -1 && lastSucc[w] == stem[k].last; w = parent[w] {
			lastSucc[w] = before
		}
		for w := parent[yl]; w != join; w = parent[w] {
			succNum[w] -= size
		}

		// Re-root S at p. Its new preorder is p's old subtree followed,
		// for each stem node s above it, by s's old segment without the
		// stem child's subtree: the part before that subtree, then the
		// part after it (empty when the child's subtree ended s's).
		tail := stem[0].last
		for i := 1; i <= k; i++ {
			s, c := stem[i], stem[i-1]
			thread[tail] = s.node
			revThread[s.node] = tail
			tail = c.rev
			if s.last != c.last {
				thread[tail] = c.next
				revThread[c.next] = tail
				tail = s.last
			}
			parent[s.node] = c.node
			parentArc[s.node] = c.arc
			succNum[s.node] = size - c.size
		}
		for i := 0; i <= k; i++ {
			lastSucc[stem[i].node] = tail
		}
		parent[p] = q
		parentArc[p] = entering
		succNum[p] = size
		state[entering] = inTree

		// Splice S in as q's first subtree.
		next := thread[q]
		thread[q] = p
		revThread[p] = q
		thread[tail] = next
		revThread[next] = tail
		for w := q; w != -1 && lastSucc[w] == q; w = parent[w] {
			lastSucc[w] = tail
		}
		for w := q; w != join; w = parent[w] {
			succNum[w] += size
		}

		// Tree arcs inside S are unchanged, so its potentials all move
		// by the one constant that zeroes the entering arc's reduced
		// cost.
		sigma := pot[q] + ea.cost - pot[p]
		if ea.from == q {
			sigma = pot[q] - ea.cost - pot[p]
		}
		for w, i := p, 0; i < size; i++ {
			pot[w] += sigma
			w = thread[w]
		}
	}

	// Feasibility: artificial arcs must be idle.
	for i := m; i < len(arcs); i++ {
		if flow[i] != 0 {
			return nil, fmt.Errorf("flow: %w: artificial arc carries %d units", ErrInfeasible, flow[i])
		}
	}
	sol = &Solution{Flow: make([]int64, m)}
	for i := 0; i < m; i++ {
		sol.Flow[i] = flow[i]
		sol.Cost += nw.arcs[i].Cost * flow[i]
	}
	if err := nw.verify(sol); err != nil {
		return nil, fmt.Errorf("flow: %w", err)
	}
	sol.Potential = nw.residualPotentials(sol.Flow, nw.potentialRoot())
	return sol, nil
}
