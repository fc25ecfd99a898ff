package flow_test

import (
	"context"
	"fmt"

	"relatch/internal/flow"
)

// A difference-constraint LP is solved through its min-cost-flow dual;
// the optimal assignment comes back as node potentials, anchored at a
// designated variable. This is the machinery behind the paper's Eq. (10)
// → Eq. (14) reduction.
func ExampleDiffLP() {
	// min r0 − 2·r1  subject to  r1 − r0 ≤ 1, bounds −1 ≤ r ≤ 0,
	// anchored at variable 2 (the retiming host).
	lp := flow.NewDiffLP(3, 2)
	lp.SetObjective(0, 1)
	lp.SetObjective(1, -2)
	lp.Constrain(1, 0, 1)
	lp.Bound(0, -1, 0)
	lp.Bound(1, -1, 0)
	res, err := lp.SolveCtx(context.Background(), flow.MethodSimplex)
	if err != nil {
		panic(err)
	}
	fmt.Println("r =", res.R, "objective =", res.Objective)
	// Output:
	// r = [-1 0 0] objective = -1
}

// A plain min-cost flow: ship ten units across two lanes, the cheap one
// capacity-limited.
func ExampleNetwork() {
	nw := flow.NewNetwork(2)
	nw.SetDemand(0, -10)
	nw.SetDemand(1, 10)
	nw.AddArc(0, 1, 1, 6)              // cheap, capacity 6
	nw.AddArc(0, 1, 5, flow.Unbounded) // expensive fallback
	sol, err := nw.SolveSimplexCtx(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("flows:", sol.Flow, "cost:", sol.Cost)
	// Output:
	// flows: [6 4] cost: 26
}
