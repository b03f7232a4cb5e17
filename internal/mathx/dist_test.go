package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// TestTwoBranchWalkMoments simulates an honest validator's score on one
// branch of the bouncing attack (-1 when active there, with probability p,
// +4 otherwise) and checks its per-epoch variance against
// ConvolvedDiffusion, and the two branches' mean drift against
// ConvolvedDrift.
func TestTwoBranchWalkMoments(t *testing.T) {
	const p, trials, steps = 0.4, 20000, 100
	rng := rand.New(rand.NewSource(42))
	walk := func(p float64) (mean, variance float64) {
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			score := 0.0
			for j := 0; j < steps; j++ {
				if rng.Float64() < p {
					score--
				} else {
					score += 4
				}
			}
			sum += score
			sumSq += score * score
		}
		mean = sum / trials
		return mean, sumSq/trials - mean*mean
	}
	meanA, variance := walk(p)
	meanB, _ := walk(1 - p)
	if want := ConvolvedDiffusion(p) * steps; math.Abs(variance-want)/want > 0.05 {
		t.Errorf("empirical variance %v, want D t = %v", variance, want)
	}
	if drift := (meanA + meanB) / 2 / steps; math.Abs(drift-ConvolvedDrift) > 0.05 {
		t.Errorf("two-branch mean drift %v, want V = %v", drift, ConvolvedDrift)
	}
}

func TestConvolvedDiffusion(t *testing.T) {
	if got := ConvolvedDiffusion(0.5); got != 6.25 {
		t.Errorf("D(0.5) = %v, want 6.25", got)
	}
	if ConvolvedDrift != 1.5 {
		t.Errorf("drift = %v, want 1.5", ConvolvedDrift)
	}
}

func TestErfArg(t *testing.T) {
	if got := ErfArg(0); got != 0.5 {
		t.Errorf("ErfArg(0) = %v, want 0.5", got)
	}
	if got := ErfArg(10); math.Abs(got-1) > 1e-12 {
		t.Errorf("ErfArg(10) = %v, want ~1", got)
	}
}
