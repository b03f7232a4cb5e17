package mathx

import "math"

// ErfArg is a convenience wrapper: 0.5*(1+erf(z)), the standard normal CDF
// evaluated at sqrt(2)*z. The paper writes its stake CDF in this form
// (Equation 19).
func ErfArg(z float64) float64 { return 0.5 * (1 + math.Erf(z)) }
