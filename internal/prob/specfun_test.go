package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*scale
}

func TestLogFactorialSmallValues(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		if got := LogFactorial(float64(n)); !almostEq(got, math.Log(w), 1e-12) {
			t.Errorf("LogFactorial(%d) = %v, want ln(%v)", n, got, w)
		}
	}
	if !math.IsInf(LogFactorial(-1), -1) {
		t.Error("LogFactorial(-1) should be -Inf")
	}
}

func TestLogChooseAgainstPascal(t *testing.T) {
	// Build Pascal's triangle exactly and compare.
	const N = 40
	row := make([]float64, N+1)
	row[0] = 1
	for n := 1; n <= N; n++ {
		for k := n; k >= 1; k-- {
			row[k] += row[k-1]
		}
		for k := 0; k <= n; k++ {
			if got := LogChoose(float64(n), float64(k)); !almostEq(got, math.Log(row[k]), 1e-10) {
				t.Fatalf("LogChoose(%d,%d) = %v, want ln(%v)", n, k, got, row[k])
			}
		}
	}
}

func TestLogChooseOutOfRange(t *testing.T) {
	for _, tc := range [][2]float64{{5, -1}, {5, 6}, {-2, 1}} {
		if got := LogChoose(tc[0], tc[1]); !math.IsInf(got, -1) {
			t.Errorf("LogChoose(%v,%v) = %v, want -Inf", tc[0], tc[1], got)
		}
	}
	if got := LogChoose(0, 0); got != 0 {
		t.Errorf("LogChoose(0,0) = %v, want 0", got)
	}
}

func TestLogChooseHugeArguments(t *testing.T) {
	// C(5e9, 30) must be finite and match the product formula.
	n, k := 5e9, 30.0
	var want float64
	for i := 0.0; i < k; i++ {
		want += math.Log(n-i) - math.Log(i+1)
	}
	if got := LogChoose(n, k); !almostEq(got, want, 1e-9) {
		t.Fatalf("LogChoose(5e9,30) = %v, want %v", LogChoose(n, k), want)
	}
}

func TestChoose2(t *testing.T) {
	for _, tc := range []struct{ n, want float64 }{{0, 0}, {1, 0}, {2, 1}, {3, 3}, {5, 10}, {100, 4950}} {
		if got := Choose2(tc.n); got != tc.want {
			t.Errorf("Choose2(%v) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestHypergeomSumsToOne(t *testing.T) {
	// Σ_x H(x; M, K, N) = 1 for several parameterisations.
	for _, tc := range []struct{ m, k, n float64 }{
		{10, 4, 3}, {20, 7, 5}, {50, 25, 10}, {6, 6, 6},
	} {
		var sum float64
		for x := 0.0; x <= tc.n; x++ {
			sum += math.Exp(LogHypergeom(x, tc.m, tc.k, tc.n))
		}
		if !almostEq(sum, 1, 1e-10) {
			t.Errorf("hypergeom(M=%v,K=%v,N=%v) sums to %v", tc.m, tc.k, tc.n, sum)
		}
	}
}

func TestHypergeomKnownValue(t *testing.T) {
	// Drawing 2 aces in a 5-card hand from a 52-card deck:
	// C(4,2)·C(48,3)/C(52,5) = 6·17296/2598960.
	got := math.Exp(LogHypergeom(2, 52, 4, 5))
	want := 6.0 * 17296.0 / 2598960.0
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDigammaSpecialValues(t *testing.T) {
	// ψ(1) = -γ; ψ(2) = 1-γ; ψ(1/2) = -γ - 2ln2.
	cases := []struct{ x, want float64 }{
		{1, -EulerGamma},
		{2, 1 - EulerGamma},
		{0.5, -EulerGamma - 2*math.Ln2},
		{10, Harmonic(9) - EulerGamma},
	}
	for _, tc := range cases {
		if got := Digamma(tc.x); !almostEq(got, tc.want, 1e-10) {
			t.Errorf("Digamma(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestDigammaRecurrence(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x across a wide range of x.
	f := func(raw float64) bool {
		x := math.Abs(raw)
		if x < 1e-3 || x > 1e8 || math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return almostEq(Digamma(x+1), Digamma(x)+1/x, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHarmonicExactSmall(t *testing.T) {
	var acc float64
	for n := 1; n <= 50; n++ {
		acc += 1 / float64(n)
		if got := Harmonic(float64(n)); !almostEq(got, acc, 1e-10) {
			t.Fatalf("Harmonic(%d) = %v, want %v", n, got, acc)
		}
	}
	if Harmonic(0) != 0 {
		t.Fatal("Harmonic(0) != 0")
	}
}

func TestHarmonicAsymptotic(t *testing.T) {
	// H(n) ~ ln n + γ for large n.
	n := 1e7
	if got := Harmonic(n); !almostEq(got, math.Log(n)+EulerGamma, 1e-6) {
		t.Fatalf("Harmonic(1e7) = %v", got)
	}
}

func TestDLogChooseDKMatchesFiniteDifference(t *testing.T) {
	// The analytic derivative of ln C(n,k) in k must match a central
	// difference of the Lgamma-based continuous extension.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 5 + rng.Float64()*1e6
		k := rng.Float64() * (n - 2)
		if k < 1 {
			k = 1
		}
		h := 1e-5 * math.Max(1, k)
		fd := (LogChoose(n, k+h) - LogChoose(n, k-h)) / (2 * h)
		if got := DLogChooseDK(n, k); !almostEq(got, fd, 1e-4) {
			t.Fatalf("DLogChooseDK(%v,%v) = %v, finite difference %v", n, k, got, fd)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp(math.Log(1), math.Log(2), math.Log(3)); !almostEq(got, math.Log(6), 1e-12) {
		t.Fatalf("LogSumExp(ln1,ln2,ln3) = %v", got)
	}
	if !math.IsInf(LogSumExp(), -1) {
		t.Fatal("empty LogSumExp should be -Inf")
	}
	if !math.IsInf(LogSumExp(math.Inf(-1), math.Inf(-1)), -1) {
		t.Fatal("all -Inf LogSumExp should be -Inf")
	}
	// Stability: huge magnitudes must not overflow.
	if got := LogSumExp(1e4, 1e4); !almostEq(got, 1e4+math.Ln2, 1e-9) {
		t.Fatalf("LogSumExp(1e4,1e4) = %v", got)
	}
}

func TestSignedLogAccExactCancellation(t *testing.T) {
	var acc SignedLogAcc
	acc.Add(1, math.Log(5))
	acc.Add(-1, math.Log(5))
	logmag, sign := acc.Result()
	if sign != 0 || !math.IsInf(logmag, -1) {
		t.Fatalf("exact cancellation gave (%v, %v)", logmag, sign)
	}
}

func TestSignedLogAccAlternatingSeries(t *testing.T) {
	// 100 - 60 + 12 = 52 with shuffled insertion order.
	terms := []struct{ sign, val float64 }{{1, 12}, {-1, 60}, {1, 100}}
	var acc SignedLogAcc
	for _, tm := range terms {
		acc.Add(tm.sign, math.Log(tm.val))
	}
	logmag, sign := acc.Result()
	if sign != 1 || !almostEq(logmag, math.Log(52), 1e-12) {
		t.Fatalf("got (%v, %v), want (ln 52, +1)", logmag, sign)
	}
	acc.Reset()
	acc.Add(-1, math.Log(3))
	logmag, sign = acc.Result()
	if sign != -1 || !almostEq(logmag, math.Log(3), 1e-12) {
		t.Fatalf("after reset got (%v, %v)", logmag, sign)
	}
}

func TestSignedLogAccMatchesDirectSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var acc SignedLogAcc
		var direct float64
		for i := 0; i < 20; i++ {
			v := rng.Float64()*100 + 0.1
			s := 1.0
			if rng.Intn(2) == 0 {
				s = -1
			}
			direct += s * v
			acc.Add(s, math.Log(v))
		}
		logmag, sign := acc.Result()
		if sign == 0 {
			return math.Abs(direct) < 1e-9
		}
		return almostEq(sign*math.Exp(logmag), direct, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalPDFCDF(t *testing.T) {
	n := Normal{Mu: 0, Sigma: 1}
	if !almostEq(n.PDF(0), 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Fatalf("standard normal PDF(0) = %v", n.PDF(0))
	}
	if !almostEq(n.CDF(0), 0.5, 1e-12) {
		t.Fatalf("standard normal CDF(0) = %v", n.CDF(0))
	}
	if !almostEq(n.CDF(1.959963985), 0.975, 1e-6) {
		t.Fatalf("CDF(1.96) = %v", n.CDF(1.959963985))
	}
	if !almostEq(n.IntervalProb(-1, 1), 0.6826894921, 1e-8) {
		t.Fatalf("P[-1,1] = %v", n.IntervalProb(-1, 1))
	}
	// LogPDF consistency.
	if !almostEq(n.LogPDF(1.3), math.Log(n.PDF(1.3)), 1e-12) {
		t.Fatal("LogPDF inconsistent with PDF")
	}
	// Shift/scale.
	m := Normal{Mu: 5, Sigma: 2}
	if !almostEq(m.CDF(5), 0.5, 1e-12) || !almostEq(m.PDF(5), n.PDF(0)/2, 1e-12) {
		t.Fatal("shifted normal misbehaves")
	}
}

// Harmonic returns the n-th harmonic number H(n) = Σ_{k=1..n} 1/k extended
// to real arguments via H(n) = ψ(n+1) + γ, as used by the closed-form
// derivatives of Appendix C. H(0) = 0.
func Harmonic(n float64) float64 {
	if n <= 0 {
		return 0
	}
	return Digamma(n+1) + EulerGamma
}

// EulerGamma is the Euler–Mascheroni constant γ.
const EulerGamma = 0.57721566490153286060651209008240243
