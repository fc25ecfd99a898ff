package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.p, got, c.want)
		}
	}
	// Never interpolates: every result is one of the samples.
	if got := percentile([]float64{1, 100}, 50); got != 1 {
		t.Errorf("median of {1, 100} = %v, want the sample 1", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}
