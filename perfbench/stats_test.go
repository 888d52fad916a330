package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 50, 50, 50},
		{100, 90, 90, 10},
		{100, 99, 99, 1},
		{101, 50, 51, 50},
		{10, 95, 10, 0},
		{1, 50, 1, 0},
		{55, 90, 50, 5},
	} {
		got, beyond := percentile(ramp(c.n), c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(n=%d, p%g) = %v (%d beyond), want %v (%d beyond)", c.n, c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

func TestTailPercentileHasTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // even the median has only 9 above it
		{20, 50, true},
		{99, 75, true}, // p90 would have 9 beyond
		{100, 90, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, v, beyond, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || p != c.want {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.want, c.ok)
			continue
		}
		if ok && (beyond < minBeyond || v != float64(c.n-beyond)) {
			t.Errorf("n=%d: p%g = %v with %d beyond", c.n, p, v, beyond)
		}
	}
}

func TestMedianInterpolates(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestStrataLatinSquare(t *testing.T) {
	const k = 4
	s := &strata{k: k}
	rng := seededRand(3)
	cells := map[[2]int]int{}
	for row := 0; row < k; row++ {
		sizes, gates := map[int]bool{}, map[int]bool{}
		for i := 0; i < k; i++ {
			u, g := s.next(rng)
			si, gi := int(u*k), int(g*k)
			sizes[si], gates[gi] = true, true
			cells[[2]int{si, gi}]++
		}
		if len(sizes) != k || len(gates) != k {
			t.Fatalf("row %d covers %d size and %d gate strata, want %d each", row, len(sizes), len(gates), k)
		}
	}
	if len(cells) != k*k {
		t.Fatalf("a square covers %d of %d cells", len(cells), k*k)
	}
}
