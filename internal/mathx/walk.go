package mathx

// The bouncing attack's score walk (paper Section 5.3): every epoch an
// honest validator lands on the observed branch with probability p, and
// its inactivity score there moves -1 (active) or +4 (inactive).

// ConvolvedDrift is the drift V of the paper's convolution of the two
// opposite random walks (one per branch): +3 every two epochs, i.e. 3/2 per
// epoch, independent of p (Equation 15 and the following discussion).
const ConvolvedDrift = 1.5

// ConvolvedDiffusion returns the paper's diffusion coefficient
// D = 25 p (1-p) used in Equation 16.
func ConvolvedDiffusion(p float64) float64 { return 25 * p * (1 - p) }
