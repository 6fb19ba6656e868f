package mathx

import "math"

// FastExpNeg computes e^(-x) for x ≥ 0 with a table-free range-reduced
// polynomial kernel. It exists for the spectrum engine's all-cells R
// synthesis, where one Gaussian weight per snapshot per candidate dominates
// the second pass and the 0.5-ulp accuracy of math.Exp buys nothing.
//
// Numerical contract (verified by TestFastExpNegErrorBound):
//
//   - For 0 ≤ x < FastExpNegCutoff the relative error is at most
//     FastExpNegMaxErr (≈5e-10 by construction, < 1e-8 with margin). The
//     bound is the tail of the degree-7 Taylor kernel at ln2/2,
//     (ln2/2)⁸/8! ≈ 5.2e-10; the two-part Cody–Waite reduction contributes
//     ≲1e-12 on this range.
//   - For x ≥ FastExpNegCutoff it returns exactly 0. At the cutoff
//     e^(-x) < 6e-19, far below the synthesis slack that callers budget
//     for, so the truncation is absorbed by their documented error bound.
//   - Negative, NaN, and ±Inf arguments fall back to math.Exp(-x), so
//     results are always finite-safe and never worse than the bound.
//
// The kernel reduces x by multiples of ln 2 (round-to-nearest, two-part
// Cody–Waite constant) into r ∈ [-ln2/2, ln2/2], evaluates the Taylor
// polynomial for e^(-r), and applies the 2^(-k) scale by constructing the
// float64 exponent directly — no division, no lookup tables.
func FastExpNeg(x float64) float64 {
	if !(x >= 0) || x >= FastExpNegCutoff {
		if x >= FastExpNegCutoff {
			return 0
		}
		return math.Exp(-x) // negative, NaN
	}
	return FastExpNegCore(x)
}

// FastExpNegCore is FastExpNeg's branch-free kernel: identical results for
// 0 ≤ x < FastExpNegCutoff, undefined outside that range. It is split out
// so hot loops that already guard the cutoff themselves (the spectrum
// all-cells weighting pass) get the kernel inlined instead of paying a
// call per term — which is also why the body is written at minimum node
// count (alternating-sign Taylor constants instead of a negated argument,
// all-uint64 exponent bias): it must stay under the compiler's inlining
// budget.
func FastExpNegCore(x float64) float64 {
	// k = round(x·log2e); e^(-x) = 2^(-k) · e^(-r), r = x − k·ln2. With
	// x < 42 the integer k stays below 64, so the k·ln2Hi product is exact.
	t := x*log2E + roundBias
	kf := t - roundBias
	// Single-constant reduction: with k ≤ 61 the k·ln2 rounding error in r
	// stays under 7e-15 — three orders below the 1e-8 contract — so the
	// classic two-part Cody–Waite split would buy accuracy nothing and cost
	// the two nodes that keep this kernel inlinable.
	r := x - kf*ln2

	// e^(-r), r ∈ [-ln2/2, ln2/2]: Taylor to r⁷ in alternating-sign form,
	// tail ≤ (ln2/2)⁸/8! ≈ 5.2e-10.
	p := 1 + r*(expD1+r*(expD2+r*(expD3+r*(expD4+r*(expD5+r*(expD6+r*expD7))))))
	// Scale by 2^(-k): bias the exponent field directly. roundBias's own low
	// mantissa bits are zero, so Float64bits(t)<<52 is exactly k<<52 (x ≥ 0
	// ⇒ 0 ≤ k ≤ 61 — the shift discards everything above the mantissa), and
	// the 2^(-k) bias needs no mask or extract. k ≤ 61 keeps the result
	// normal (exponent ≥ 1023−61−1 after the kernel's ±1/√2 swing).
	return p * math.Float64frombits(1023<<52-math.Float64bits(t)<<52)
}

// FastExpNegCoarseCore is the shortlist-grade sibling of FastExpNegCore:
// a linear interpolation into a precomputed e^(-x) table instead of a
// range-reduced polynomial, trading accuracy (relative error ≤
// FastExpNegCoarseMaxErr, the Δx²/8 interpolation bound — uniform in
// relative terms because f” of e^(-x) shrinks with f itself) for the
// latency of the polynomial's float↔int exponent-bias round trips. It
// exists for consumers whose own error budget is forgiving because an
// exact rescore follows (the spectrum R argmax shortlist): they only need
// the result accurate enough that the true winner stays inside a widened
// shortlist window. Narrower domain contract than FastExpNegCore: 0 ≤ x <
// FastExpNegCoarseCutoff, undefined outside — callers flush past the
// coarse cutoff anyway (e^(-24) ≈ 3.8e-11 is invisible at shortlist
// scale). The index mask is a no-op for in-domain x that hands the
// compiler the bounds facts for both table loads.
func FastExpNegCoarseCore(x float64) float64 {
	u := x * expTableScale
	i := int(u) & (expTableN - 1)
	f := u - float64(i)
	a := expTable[i]
	return a + f*(expTable[i+1]-a)
}

const (
	expTableN     = 2048
	expTableScale = expTableN / FastExpNegCoarseCutoff
)

// expTable[i] = e^(-i/expTableScale), one guard entry past the end so the
// i+1 interpolation load needs no branch at the last in-domain index.
var expTable = func() (t [expTableN + 1]float64) {
	for i := range t {
		t[i] = math.Exp(-float64(i) / expTableScale)
	}
	return t
}()

const (
	// FastExpNegMaxErr is the guaranteed relative error bound of
	// FastExpNeg on 0 ≤ x < FastExpNegCutoff.
	FastExpNegMaxErr = 1e-8
	// FastExpNegCoarseMaxErr is the relative error bound of
	// FastExpNegCoarseCore on its 0 ≤ x < FastExpNegCoarseCutoff domain:
	// the interpolation bound Δx²/8 ≈ 1.7e-5 (verified by the sweep in
	// TestFastExpNegCoarseErrorBound); 2e-5 adds margin.
	FastExpNegCoarseMaxErr = 2e-5
	// FastExpNegCoarseCutoff is the end of the coarse kernel's table
	// domain. Shortlist-grade consumers flush terms past it: e^(-24) ≈
	// 3.8e-11, invisible against their widened shortlist windows.
	FastExpNegCoarseCutoff = 24.0
	// FastExpNegCutoff is where FastExpNeg flushes to zero. e^(-42) ≈
	// 5.7e-19: Gaussian residual weights this small are invisible next to
	// the ≥1e-6 synthesis slack budgets in internal/spectrum.
	FastExpNegCutoff = 42.0

	log2E = math.Log2E
	// roundBias implements round-to-nearest via the float64 mantissa: for
	// |t| < 2^51, (t + 1.5·2^52) − 1.5·2^52 rounds t to the nearest
	// integer, and the integer sits in the low mantissa bits.
	roundBias = 1.5 / 0x1p-52

	ln2 = math.Ln2

	// Alternating-sign Taylor coefficients of e^(-r) in r directly
	// ((-1)^n/n!): folding the sign into the constants spares the kernel a
	// negation, and IEEE negation being exact keeps the Horner chain
	// bit-identical to the 1/n! form in -r.
	expD1 = -1.0
	expD2 = 1.0 / 2
	expD3 = -1.0 / 6
	expD4 = 1.0 / 24
	expD5 = -1.0 / 120
	expD6 = 1.0 / 720
	expD7 = -1.0 / 5040
)
