package mathx

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBrentPolynomial(t *testing.T) {
	f := func(x float64) float64 { return (x + 3) * (x - 1) * (x - 1) * (x - 4) }
	root, err := Brent(f, 2, 5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-4) > 1e-9 {
		t.Errorf("Brent root = %v, want 4", root)
	}
}

func TestBrentTranscendental(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) - x }
	root, err := Brent(f, 0, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	// Dottie number.
	if math.Abs(root-0.7390851332151607) > 1e-10 {
		t.Errorf("Brent cos fixpoint = %v", root)
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := Brent(f, 0, 1, 1e-9); !errors.Is(err, ErrNoBracket) {
		t.Errorf("expected ErrNoBracket, got %v", err)
	}
}

// TestBrentAgreesWithBisect holds Brent to plain bisection, an independent
// reference, and to the closed-form root of exp(-x) = k.
func TestBrentAgreesWithBisect(t *testing.T) {
	bisect := func(f func(float64) float64, a, b float64) float64 {
		for i := 0; i < 200 && b-a > 1e-13; i++ {
			if m := (a + b) / 2; f(a)*f(m) <= 0 {
				b = m
			} else {
				a = m
			}
		}
		return (a + b) / 2
	}
	for _, k := range []float64{0.9, 0.5, 0.1, 0.01} {
		f := func(x float64) float64 { return math.Exp(-x) - k }
		want := -math.Log(k)
		b, err := Brent(f, 0, 10, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if a := bisect(f, 0, 10); math.Abs(a-want) > 1e-9 || math.Abs(b-want) > 1e-9 {
			t.Errorf("k=%v: bisect=%v brent=%v want=%v", k, a, b, want)
		}
	}
}

func TestBrentRandomizedMonotone(t *testing.T) {
	// Property: for any c in (0,1), the root of x^3 - c in [0,1] is cbrt(c).
	f := func(raw uint16) bool {
		c := (float64(raw) + 1) / 65537.0
		root, err := Brent(func(x float64) float64 { return x*x*x - c }, 0, 1, 1e-13)
		if err != nil {
			return false
		}
		return math.Abs(root-math.Cbrt(c)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
