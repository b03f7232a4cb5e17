package mathx

import (
	"math"
	"testing"
)

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(xs) != len(want) {
		t.Fatalf("len = %d, want %d", len(xs), len(want))
	}
	for i := range xs {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	if got := Linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("Linspace n=1 = %v, want [3]", got)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}
