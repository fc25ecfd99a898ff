package flow_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"relatch/internal/bench"
	"relatch/internal/cell"
	"relatch/internal/core"
	"relatch/internal/fig4"
	"relatch/internal/rgraph"
	"relatch/internal/sta"
)

// The difference LP that rgraph.Build assembles is pinned here, row by
// row, the way pivotpath_test.go pins the solver: the variable and
// constraint counts, an FNV-64a hash of the ordered constraint list and
// objective (flow's Fingerprint), and a hash of the cut sets g(t). A
// rewrite of the graph build must reproduce every row byte for byte,
// since constraint order decides the simplex pivot path; a change that
// means to alter the LP must re-record the rows (the failure message
// prints the new row).

type pinnedLP struct {
	vars, cons int
	lpHash     uint64
	gtHash     uint64
}

func (p pinnedLP) String() string {
	return fmt.Sprintf("{%d, %d, %#x, %#x}", p.vars, p.cons, p.lpHash, p.gtHash)
}

// gtHash hashes the cut-set map in ascending target order.
func gtHash(gt map[int][]int) uint64 {
	keys := make([]int, 0, len(gt))
	for k := range gt {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, k := range keys {
		put(k)
		put(len(gt[k]))
		for _, id := range gt[k] {
			put(id)
		}
	}
	return h.Sum64()
}

// profileGraph builds the retiming graph of a seed benchmark the way
// core.RetimeCtx does for G-RAR (aware) or base retiming.
func profileGraph(tb testing.TB, profile string, edlCost float64, aware bool) *rgraph.Graph {
	tb.Helper()
	p, ok := bench.ProfileByName(profile)
	if !ok {
		tb.Fatalf("unknown profile %q", profile)
	}
	c, scheme, err := p.Build(cell.Default(edlCost))
	if err != nil {
		tb.Fatal(err)
	}
	opt := core.Options{Scheme: scheme, EDLCost: edlCost}
	g, err := rgraph.Build(c, sta.Analyze(c, sta.DefaultOptions(c.Lib)), rgraph.Config{
		Scheme:          scheme,
		Latch:           core.SlaveLatch(c, opt),
		EDLCost:         edlCost,
		ResilientAware:  aware,
		MovementPrimary: !aware,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// fig4Graph builds the worked example of Fig. 4 under its fixed delays.
func fig4Graph(tb testing.TB, aware bool) *rgraph.Graph {
	tb.Helper()
	c := fig4.MustCircuit()
	tm := sta.Analyze(c, sta.Options{Model: sta.ModelFixed, FixedDelays: fig4.FixedDelays(c)})
	g, err := rgraph.Build(c, tm, rgraph.Config{
		Scheme:         fig4.Scheme(),
		Latch:          fig4.ZeroLatch(),
		EDLCost:        fig4.EDLOverhead,
		ResilientAware: aware,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func pinLP(g *rgraph.Graph) pinnedLP {
	return pinnedLP{
		vars:   g.NumVariables(),
		cons:   g.NumConstraints(),
		lpHash: g.LP().Fingerprint(),
		gtHash: gtHash(g.GT),
	}
}

func TestRetimingLPPinned(t *testing.T) {
	type row struct {
		name  string
		build func(testing.TB) *rgraph.Graph
		want  pinnedLP
	}
	prof := func(name string, aware bool) func(testing.TB) *rgraph.Graph {
		return func(tb testing.TB) *rgraph.Graph { return profileGraph(tb, name, 1.0, aware) }
	}
	ex := func(aware bool) func(testing.TB) *rgraph.Graph {
		return func(tb testing.TB) *rgraph.Graph { return fig4Graph(tb, aware) }
	}
	rows := []row{
		{"fig4/grar", ex(true), pinnedLP{13, 47, 0x8ad6e099606c8010, 0xa58ef81fb48a4bce}},
		{"fig4/base", ex(false), pinnedLP{12, 42, 0x96bf84bebaf9e5e, 0xa58ef81fb48a4bce}},
		{"s1196/grar", prof("s1196", true), pinnedLP{343, 1607, 0x934b3a241a4f51b, 0x9c570714d4250ed6}},
		{"s1196/base", prof("s1196", false), pinnedLP{331, 1555, 0x2a590a9ed0dd507c, 0x9c570714d4250ed6}},
		{"s1238/grar", prof("s1238", true), pinnedLP{334, 1550, 0xd9981e736b267ff5, 0x9838ea555c2be295}},
		{"s1238/base", prof("s1238", false), pinnedLP{327, 1517, 0x10444555742fb400, 0x9838ea555c2be295}},
		{"s1423/grar", prof("s1423", true), pinnedLP{586, 2489, 0x273cf80880a7ec37, 0xf1d3fd2206d118fb}},
		{"s1423/base", prof("s1423", false), pinnedLP{534, 2280, 0xf2c06318b82f70e7, 0xf1d3fd2206d118fb}},
		{"s1488/grar", prof("s1488", true), pinnedLP{325, 1627, 0x750d8d7b0f725c1c, 0x57a41b57f272c616}},
		{"s1488/base", prof("s1488", false), pinnedLP{320, 1604, 0x559ca2e13579900, 0x57a41b57f272c616}},
		{"s5378/grar", prof("s5378", true), pinnedLP{1829, 8309, 0x26c5319564c481f1, 0xb5efd4935adc4c2c}},
		{"s5378/base", prof("s5378", false), pinnedLP{1750, 7960, 0xfb4c6b816bfc4a8b, 0xb5efd4935adc4c2c}},
		{"s9234/grar", prof("s9234", true), pinnedLP{1754, 8268, 0x9013df3dbdb33b37, 0x293e2d55cfe2a3fa}},
		{"s9234/base", prof("s9234", false), pinnedLP{1704, 8053, 0x6636f4ad6073b3b2, 0x293e2d55cfe2a3fa}},
		{"s13207/grar", prof("s13207", true), pinnedLP{3917, 17070, 0xe02bd3ea01c881fe, 0xc2338be7187a8358}},
		{"s13207/base", prof("s13207", false), pinnedLP{3705, 16182, 0x652dd5009d6eb265, 0xc2338be7187a8358}},
		{"s15850/grar", prof("s15850", true), pinnedLP{4421, 19699, 0x550544efd119f3c1, 0x9a92c1e71d98ee2f}},
		{"s15850/base", prof("s15850", false), pinnedLP{4215, 18855, 0xd49ddd22713c9b5, 0x9a92c1e71d98ee2f}},
		{"s35932/grar", prof("s35932", true), pinnedLP{10605, 45435, 0x484c0a5a6e0dee13, 0xf569e26f02d5668d}},
		{"s35932/base", prof("s35932", false), pinnedLP{10365, 44475, 0x915fb49ce6be89, 0xf569e26f02d5668d}},
		{"s38417/grar", prof("s38417", true), pinnedLP{9207, 39183, 0xa2f91d6264fcb7d8, 0xaa3e77a4b498745a}},
		{"s38417/base", prof("s38417", false), pinnedLP{9015, 38415, 0x412468ebface00e6, 0xaa3e77a4b498745a}},
		{"s38584/grar", prof("s38584", true), pinnedLP{9229, 39984, 0xd0fc030e8d90a7c2, 0xff042dd917b33e83}},
		{"s38584/base", prof("s38584", false), pinnedLP{8606, 37492, 0x2145ea5339e43433, 0xff042dd917b33e83}},
		{"Plasma/grar", prof("Plasma", true), pinnedLP{17576, 82224, 0xacc4209e422b54cc, 0x6b79a649b8d6b828}},
		{"Plasma/base", prof("Plasma", false), pinnedLP{17090, 80280, 0x2f1a97f1163c265, 0x6b79a649b8d6b828}},
	}
	if want := 2 + 2*len(bench.ISCAS89); len(rows) != want {
		t.Fatalf("%d pinned rows, want %d: every bench.ISCAS89 profile as G-RAR and base, plus Fig. 4", len(rows), want)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if got := pinLP(r.build(t)); got != r.want {
				t.Errorf("retiming LP moved: got %v, want %v", got, r.want)
			}
		})
	}
}
