package flow

import (
	"context"
	"testing"
)

// Allocation regression gates for the two solver inner loops. The
// //relint:hot annotations and the hotalloc rule keep allocation
// *sources* out of the pivot/augmentation loops statically; these
// tests pin the *measured* behavior: a solve allocates a fixed,
// size-proportional amount of setup (basis arrays, the residual-path
// scratch, the Solution itself) and nothing per iteration, so the
// per-solve count is flat no matter how many pivots or augmentations
// the instance forces. The ceilings below were measured on the CI
// container (go1.22) with ~25% headroom; an increase means an
// allocation crept back into a hot loop (closure, append growth,
// interface boxing) and should be fixed, not accommodated.

// allocNet builds a ladder with chords: a long path plus skip arcs of
// clashing costs, so the simplex has pivots to do and SSP has several
// augmentations, while staying small enough for AllocsPerRun.
func allocNet(tb testing.TB, n int) *Network {
	tb.Helper()
	nw := NewNetwork(n)
	for i := 0; i < n-1; i++ {
		if _, err := nw.AddArc(i, i+1, int64(1+i%7), Unbounded); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i+2 < n; i += 2 {
		if _, err := nw.AddArc(i, i+2, int64(3+i%5), Unbounded); err != nil {
			tb.Fatal(err)
		}
	}
	nw.SetDemand(0, -64)
	nw.SetDemand(n-1, 64)
	return nw
}

func TestSimplexAllocsPerSolve(t *testing.T) {
	nw := allocNet(t, 64)
	ctx := context.Background()
	avg := testing.AllocsPerRun(50, func() {
		if _, err := nw.SolveSimplexCtx(ctx); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 213.0 (go1.24, linux/amd64); the setup (basis and
	// thread arrays, stem scratch, residual adjacency) is
	// size-proportional and pivot-count-independent.
	const ceiling = 400
	if avg > ceiling {
		t.Errorf("SolveSimplexCtx: %.1f allocs per solve, gate is %d — an allocation has crept into the pivot loop", avg, ceiling)
	}
}

func TestSSPAllocsPerSolve(t *testing.T) {
	nw := allocNet(t, 64)
	ctx := context.Background()
	avg := testing.AllocsPerRun(50, func() {
		if _, err := nw.SolveSSPCtx(ctx); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 380.0 on the reference container; the typed sspHeap
	// replaces container/heap's per-push interface boxing, so the
	// count no longer scales with augmentation work.
	const ceiling = 480
	if avg > ceiling {
		t.Errorf("SolveSSPCtx: %.1f allocs per solve, gate is %d — an allocation has crept into the augmentation loop", avg, ceiling)
	}
}

// TestAllocsFlatInWork is the sharper property behind the absolute
// gates: doubling the work (a longer ladder, more pivots and longer
// augmenting paths) may grow the per-solve setup linearly, but must
// not explode it — per-iteration allocation would scale with pivot
// count, not node count. The factor-4 bound is loose on purpose; the
// pre-optimization solvers (per-pivot closures, container/heap
// boxing) exceeded it by an order of magnitude.
func TestAllocsFlatInWork(t *testing.T) {
	ctx := context.Background()
	measure := func(n int) float64 {
		nw := allocNet(t, n)
		return testing.AllocsPerRun(20, func() {
			if _, err := nw.SolveSimplexCtx(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(32), measure(128)
	if small == 0 {
		t.Fatalf("implausible zero-alloc solve (measurement broken?)")
	}
	if ratio := large / small; ratio > 4 {
		t.Errorf("allocs grew %.1fx for 4x nodes (%.1f -> %.1f): per-pivot allocation suspected", ratio, small, large)
	}
}
