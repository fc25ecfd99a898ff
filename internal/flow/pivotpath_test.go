package flow_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/core"
	"relatch/internal/flow"
	"relatch/internal/obs"
	"relatch/internal/rgraph"
	"relatch/internal/sta"
)

// The pivot path of the network simplex is part of its contract: which
// optimum it returns among ties decides the latch placements in the
// paper tables, and the bench golden file pins the pivot counts. These
// rows were recorded from the solver and pin, per network, the exact
// pivot and degenerate-pivot counts, the optimal cost and an FNV-64a
// hash of the returned flow. A change to the basis bookkeeping must
// reproduce every row; a change that means to alter the pivot path
// must re-record them (the failure message prints the new row).

type pinnedPath struct {
	pivots, degenerate int64
	cost               int64
	flowHash           uint64
}

func (p pinnedPath) String() string {
	return fmt.Sprintf("{%d, %d, %d, %#x}", p.pivots, p.degenerate, p.cost, p.flowHash)
}

// randomNet routes a random sub-capacity flow over random arcs, so the
// network is feasible by construction. Capacitated networks draw costs
// from [-4, 15]: negative-cost arcs saturate and end at their upper
// bound. Uncapacitated ones draw non-negative costs, so no cycle is
// unbounded.
func randomNet(tb testing.TB, seed int64, n, arcs int, capacitated bool) *flow.Network {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := flow.NewNetwork(n)
	bal := make([]int64, n)
	for i := 0; i < arcs; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		capv, cost := flow.Unbounded, int64(rng.Intn(16))
		f := int64(rng.Intn(8))
		if capacitated {
			capv = int64(1 + rng.Intn(12))
			cost = int64(rng.Intn(20) - 4)
			f = int64(rng.Intn(int(capv + 1)))
		}
		mustArc(tb, nw, u, v, cost, capv)
		bal[v] += f
		bal[u] -= f
	}
	for v := range bal {
		nw.SetDemand(v, bal[v])
	}
	return nw
}

// degenerateNet is a k×k grid of two-way arcs with costs from {0, 1}
// and a few point supplies: most nodes have zero demand and many paths
// tie, so most pivots move no flow.
func degenerateNet(tb testing.TB, seed int64, k, terminals int) *flow.Network {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := flow.NewNetwork(k * k)
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			v := r*k + c
			if c+1 < k {
				mustArc(tb, nw, v, v+1, int64(rng.Intn(2)), flow.Unbounded)
				mustArc(tb, nw, v+1, v, int64(rng.Intn(2)), flow.Unbounded)
			}
			if r+1 < k {
				mustArc(tb, nw, v, v+k, int64(rng.Intn(2)), flow.Unbounded)
				mustArc(tb, nw, v+k, v, int64(rng.Intn(2)), flow.Unbounded)
			}
		}
	}
	for i := 0; i < terminals; i++ {
		u, v := rng.Intn(k*k), rng.Intn(k*k)
		d := int64(1 + rng.Intn(3))
		nw.SetDemand(u, nw.Demand(u)-d)
		nw.SetDemand(v, nw.Demand(v)+d)
	}
	return nw
}

func mustArc(tb testing.TB, nw *flow.Network, from, to int, cost, capv int64) {
	tb.Helper()
	if _, err := nw.AddArc(from, to, cost, capv); err != nil {
		tb.Fatal(err)
	}
}

// gRARNet lowers the G-RAR difference LP of a seed benchmark to its dual
// transshipment network, built the way core.RetimeCtx builds it.
func gRARNet(tb testing.TB, profile string, edlCost float64) *flow.Network {
	tb.Helper()
	p, ok := bench.ProfileByName(profile)
	if !ok {
		tb.Fatalf("unknown profile %q", profile)
	}
	seq, err := p.BuildSeq(cell.Default(edlCost))
	if err != nil {
		tb.Fatal(err)
	}
	c, scheme, err := p.CutAndCalibrate(seq)
	if err != nil {
		tb.Fatal(err)
	}
	opt := core.Options{Scheme: scheme, EDLCost: edlCost}
	g, err := rgraph.Build(c, sta.Analyze(c, sta.DefaultOptions(c.Lib)), rgraph.Config{
		Scheme:         scheme,
		Latch:          core.SlaveLatch(c, opt),
		EDLCost:        edlCost,
		ResilientAware: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := g.LP().Lower()
	if err != nil {
		tb.Fatal(err)
	}
	return nw
}

// solvePinned runs the simplex under a tracer and reads its path off
// the flow.simplex span.
func solvePinned(tb testing.TB, nw *flow.Network) pinnedPath {
	tb.Helper()
	tr := obs.New("pin")
	sol, err := nw.SolveSimplexCtx(obs.WithTracer(context.Background(), tr))
	if err != nil {
		tb.Fatalf("simplex: %v", err)
	}
	tr.Finish()
	rep := tr.Report()
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range sol.Flow {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	return pinnedPath{
		pivots:     rep.Sum("flow.simplex", "pivots"),
		degenerate: rep.Sum("flow.simplex", "degenerate_pivots"),
		cost:       sol.Cost,
		flowHash:   h.Sum64(),
	}
}

func TestSimplexPivotPathPinned(t *testing.T) {
	type row struct {
		name  string
		build func(testing.TB) *flow.Network
		want  pinnedPath
	}
	random := func(seed int64, n, arcs int, capacitated bool) func(testing.TB) *flow.Network {
		return func(tb testing.TB) *flow.Network { return randomNet(tb, seed, n, arcs, capacitated) }
	}
	grid := func(seed int64, k, terminals int) func(testing.TB) *flow.Network {
		return func(tb testing.TB) *flow.Network { return degenerateNet(tb, seed, k, terminals) }
	}
	ladder := func(n int) func(testing.TB) *flow.Network {
		return func(tb testing.TB) *flow.Network { return flow.AllocNet(tb, n) }
	}
	grar := func(profile string, c float64) func(testing.TB) *flow.Network {
		return func(tb testing.TB) *flow.Network { return gRARNet(tb, profile, c) }
	}
	rows := []row{
		{"uncap/n8", random(1, 8, 20, false), pinnedPath{7, 0, 248, 0x5be4147b0236a4c2}},
		{"uncap/n12", random(2, 12, 40, false), pinnedPath{11, 0, 262, 0x5d6d7dfdc22ca86}},
		{"uncap/n20", random(3, 20, 60, false), pinnedPath{23, 2, 449, 0x92553b3e0c53a85e}},
		{"uncap/n30", random(4, 30, 150, false), pinnedPath{40, 11, 963, 0x8bc2de560849d004}},
		{"uncap/n50", random(5, 50, 200, false), pinnedPath{68, 11, 1547, 0x1f0c769fab4ce6d9}},
		{"uncap/n80", random(6, 80, 500, false), pinnedPath{154, 31, 1411, 0x7985e94ee67c7ab0}},
		{"uncap/n120", random(7, 120, 600, false), pinnedPath{233, 36, 2972, 0xd13370bdbc568439}},
		{"uncap/n200", random(8, 200, 1500, false), pinnedPath{407, 90, 3405, 0x4f068bc4f9d2233e}},
		{"uncap/n300", random(9, 300, 1200, false), pinnedPath{675, 210, 7092, 0xddcf2befa2970e55}},
		{"cap/n8", random(11, 8, 24, true), pinnedPath{14, 3, 346, 0xd0a3a846dc7cb88}},
		{"cap/n12", random(12, 12, 50, true), pinnedPath{25, 3, 512, 0x530a5698086eea4c}},
		{"cap/n20", random(13, 20, 80, true), pinnedPath{37, 10, 79, 0x274d8d3b0e60ce6f}},
		{"cap/n30", random(14, 30, 200, true), pinnedPath{115, 30, 871, 0xba9ca13b04ad570f}},
		{"cap/n50", random(15, 50, 250, true), pinnedPath{162, 61, 713, 0x5e3f64330ba2b9e9}},
		{"cap/n80", random(16, 80, 640, true), pinnedPath{415, 173, -438, 0xe02b845cffa0eba4}},
		{"cap/n120", random(17, 120, 700, true), pinnedPath{580, 281, 1302, 0x8920c23873a8b0a1}},
		{"cap/n200", random(18, 200, 2000, true), pinnedPath{1579, 851, -946, 0xd8fed59d17144f01}},
		{"cap/n300", random(19, 300, 1500, true), pinnedPath{1406, 665, 4059, 0xe6175dadd12ec1ac}},
		{"degenerate/k4", grid(21, 4, 2), pinnedPath{14, 11, 4, 0xddc4748a743b67a3}},
		{"degenerate/k6", grid(22, 6, 3), pinnedPath{34, 30, 3, 0xecd7423f5b849de6}},
		{"degenerate/k8", grid(23, 8, 4), pinnedPath{49, 45, 1, 0x5d25c019711fc747}},
		{"degenerate/k12", grid(24, 12, 5), pinnedPath{168, 160, 9, 0x2b6b2aa168dc1984}},
		{"degenerate/k16", grid(25, 16, 8), pinnedPath{403, 377, 13, 0xb52860f929cd0527}},
		{"degenerate/k24", grid(26, 24, 6), pinnedPath{930, 911, 15, 0x7f93e5813a768045}},
		{"ladder/n32", ladder(32), pinnedPath{33, 30, 4480, 0xaced79c59c6025}},
		{"ladder/n64", ladder(64), pinnedPath{69, 64, 9536, 0x84d0aa876916d565}},
		{"ladder/n128", ladder(128), pinnedPath{137, 133, 18752, 0xef24ce7f771cdae5}},
		{"grar/s1196", grar("s1196", 1.0), pinnedPath{740, 42, 899814, 0xd2d483126f60dfc6}},
		{"grar/s5378", grar("s5378", 1.0), pinnedPath{3690, 203, 10898974, 0xe67aef93fe98c8cb}},
		{"grar/s5378-c2", grar("s5378", 2.0), pinnedPath{3509, 212, 18798974, 0xec30870a6ae0e3f6}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			nw := r.build(t)
			got := solvePinned(t, nw)
			if got != r.want {
				t.Errorf("pivot path moved: got %v, want %v", got, r.want)
			}
			ssp, err := nw.SolveSSPCtx(context.Background())
			if err != nil {
				t.Fatalf("ssp: %v", err)
			}
			if ssp.Cost != got.cost {
				t.Errorf("simplex cost %d, ssp cost %d", got.cost, ssp.Cost)
			}
		})
	}
}
