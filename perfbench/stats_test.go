package main

import (
	"math"
	"slices"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: the helpers must sort
	}
	return v
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{9, 0, math.NaN(), false},
		{19, 0, math.NaN(), false},
		{20, 50, 10, true},
		{99, 50, 50, true},
		{100, 90, 90, true},
		{999, 90, 900, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		p, v, n, ok := highestTail(seq(c.n))
		if ok != c.ok || n != c.n || (ok && (p != c.p || v != c.value)) {
			t.Errorf("highestTail(%d samples) = p%g %v n=%d ok=%v, want p%g %v ok=%v",
				c.n, p, v, n, ok, c.p, c.value, c.ok)
		}
		if ok && beyond(n, p) < minBeyond {
			t.Errorf("%d samples: p%g leaves %d beyond it", n, p, beyond(n, p))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := sortedCopy(seq(10))
	if got := percentile(s, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := percentile(s, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := percentile(s, 100); got != 10 {
		t.Errorf("p100 of 1..10 = %v, want 10", got)
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty input must give NaN")
	}
}

func TestLogSizes(t *testing.T) {
	a := (&splitmix64{s: 7}).logSizes(64, 4, 256<<10)
	if b := (&splitmix64{s: 7}).logSizes(64, 4, 256<<10); !slices.Equal(a, b) {
		t.Fatal("one seed gave two size orders")
	}
	c := (&splitmix64{s: 8}).logSizes(64, 4, 256<<10)
	if slices.Equal(a, c) {
		t.Error("two seeds gave one size order")
	}
	s := slices.Clone(a)
	slices.Sort(s)
	if slices.Equal(a, s) {
		t.Error("sizes are not shuffled")
	}
	if sc := slices.Sorted(slices.Values(c)); !slices.Equal(s, sc) {
		t.Error("two seeds gave different size sets")
	}
	// Sizes double every 64/16 = 4 steps: 16 doublings from 4 B to 256 KiB.
	for i, v := range s {
		want := 4 * math.Pow(2, (float64(i)+0.5)/4)
		if math.Abs(float64(v)-want) > 0.5 {
			t.Errorf("size #%d = %d, want %.1f", i, v, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := &splitmix64{s: 3}
	for n := 1; n < 40; n++ {
		p := rng.perm(n)
		s := slices.Clone(p)
		slices.Sort(s)
		for i, v := range s {
			if v != i {
				t.Fatalf("perm(%d) = %v", n, p)
			}
		}
	}
}
