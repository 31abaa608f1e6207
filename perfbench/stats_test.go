package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := beyond(xs, 0.9); got != 10 {
		t.Errorf("beyond(1..100, 0.9) = %d, want 10", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{5, 5, 5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("geomean(5, 5, 5) = %v, want 5", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if got := geomean(bad); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", bad, got)
		}
	}
}
