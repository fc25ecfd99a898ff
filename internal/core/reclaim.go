package core

import (
	"context"
	"fmt"

	"relatch/internal/synth"
)

// ReclaimBySizing implements the observation closing the paper's Section
// VI-D: after retiming, the masters still error-detecting can often be
// reclaimed by *speeding up the combinational logic* — max-delay
// constraints at Π on the offending endpoints plus a size-only
// incremental compile — trading a modest combinational-area increase
// ("on average 5%") for fewer EDL latches and lower error rates,
// "sometimes to 0".
//
// The input result is not modified; the returned result carries a resized
// clone of the circuit, the same slave placement, and the re-settled
// error-detecting set. The re-evaluation runs under ctx, so its spans
// land in the caller's trace.
func ReclaimBySizing(ctx context.Context, res *Result, maxIter int) (*Result, synth.CompileResult, error) {
	if res.Placement == nil {
		return nil, synth.CompileResult{}, fmt.Errorf("core: %w: result carries no placement", ErrBadInput)
	}
	c := res.Circuit.Clone()
	opt := res.Options
	tool := synth.New(c, evalOptions(c, opt))
	latch := slaveLatch(c, opt)

	// Constrain every endpoint to the period: the compile pulls in the
	// ones it can and leaves the rest at their best achievable arrival.
	req := make(map[int]float64, len(c.Outputs))
	for _, o := range c.Outputs {
		req[o.ID] = opt.Scheme.Period()
	}
	comp := tool.SizeOnlyCompile(req, res.Placement, opt.Scheme, latch, maxIter)

	out := evaluate(ctx, c, opt, res.Approach, res.Placement, latch)
	out.Objective = res.Objective
	out.Classes = res.Classes
	out.Runtime = res.Runtime
	return out, comp, nil
}
