package core

import (
	"math"
	"testing"

	"gsim/internal/prob"
)

func almostEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func testParams(tauMax int) Params { return Params{LV: 3, LE: 3, TauMax: tauMax} }

func TestOmega1SumsToOne(t *testing.T) {
	m := NewModel(6, testParams(8))
	for tau := 0; tau <= 8; tau++ {
		var sum float64
		for x := 0; x <= tau && x <= m.V; x++ {
			sum += m.Omega1(x, tau)
		}
		if !almostEq(sum, 1, 1e-10) {
			t.Fatalf("τ=%d: Σ_x Ω1 = %v", tau, sum)
		}
	}
}

func TestOmega1HandValues(t *testing.T) {
	// v = 4: M = 4 + C(4,2) = 10 slots, K = 4 vertex slots, τ = 2 draws.
	m := NewModel(4, testParams(3))
	want := []float64{15.0 / 45, 24.0 / 45, 6.0 / 45}
	for x, w := range want {
		if got := m.Omega1(x, 2); !almostEq(got, w, 1e-12) {
			t.Fatalf("Ω1(%d,2) = %v, want %v", x, got, w)
		}
	}
}

// TestOmega2AgainstBruteForce validates Lemma 2 by enumerating every
// y-subset of the complete graph's edges and counting covered vertices.
func TestOmega2AgainstBruteForce(t *testing.T) {
	for _, v := range []int{3, 4, 5, 6} {
		m := NewModel(v, testParams(4))
		// Edges of K_v.
		type edge struct{ a, b int }
		var edges []edge
		for a := 0; a < v; a++ {
			for b := a + 1; b < v; b++ {
				edges = append(edges, edge{a, b})
			}
		}
		for y := 0; y <= 4 && y <= len(edges); y++ {
			counts := make(map[int]int)
			total := 0
			// Enumerate y-subsets by bitmask over ≤ 15 edges.
			var rec func(start, picked, mask int)
			rec = func(start, picked, mask int) {
				if picked == y {
					cover := 0
					for i := 0; i < v; i++ {
						if mask&(1<<uint(i)) != 0 {
							cover++
						}
					}
					counts[cover]++
					total++
					return
				}
				for i := start; i < len(edges); i++ {
					rec(i+1, picked+1, mask|1<<uint(edges[i].a)|1<<uint(edges[i].b))
				}
			}
			rec(0, 0, 0)
			for mm := 0; mm <= 2*y && mm <= v; mm++ {
				want := float64(counts[mm]) / float64(total)
				if got := m.Omega2(mm, y); !almostEq(got, want, 1e-9) {
					t.Fatalf("v=%d y=%d m=%d: Ω2 = %v, brute force %v", v, y, mm, got, want)
				}
			}
		}
	}
}

func TestOmega2RowsSumToOne(t *testing.T) {
	for _, v := range []int{4, 7, 12, 40} {
		m := NewModel(v, testParams(6))
		for y := 0; y <= 6; y++ {
			if float64(y) > m.c2 {
				continue
			}
			var sum float64
			for mm := 0; mm < len(m.omega2[y]); mm++ {
				sum += m.Omega2(mm, y)
			}
			if !almostEq(sum, 1, 1e-8) {
				t.Fatalf("v=%d y=%d: Σ_m Ω2 = %v", v, y, sum)
			}
		}
	}
}

func TestOmega3SumsToOne(t *testing.T) {
	m := NewModel(5, testParams(5))
	for r := 0; r <= 15; r++ {
		var sum float64
		for phi := 0; phi <= r; phi++ {
			sum += m.Omega3(r, phi)
		}
		if !almostEq(sum, 1, 1e-10) {
			t.Fatalf("r=%d: Σ_ϕ Ω3 = %v", r, sum)
		}
	}
}

func TestOmega3IsBinomialInDisguise(t *testing.T) {
	// Ω3(r,ϕ) = C(r,ϕ)·(D−1)^ϕ/D^r: per relabelled branch the chance of
	// actually changing the multiset is (D−1)/D, independently.
	m := NewModel(4, testParams(3)) // D = 3·C(6,3) = 60
	d := 60.0
	for r := 0; r <= 6; r++ {
		for phi := 0; phi <= r; phi++ {
			want := math.Exp(prob.LogChoose(float64(r), float64(phi))) *
				math.Pow((d-1)/d, float64(phi)) * math.Pow(1/d, float64(r-phi))
			if got := m.Omega3(r, phi); !almostEq(got, want, 1e-10) {
				t.Fatalf("Ω3(%d,%d) = %v, want %v", r, phi, got, want)
			}
		}
	}
	// ϕ > r impossible.
	if m.Omega3(2, 3) != 0 {
		t.Fatal("Ω3 with ϕ > r must vanish")
	}
}

func TestOmega4SumsToOneOverR(t *testing.T) {
	m := NewModel(7, testParams(5))
	for x := 0; x <= 5; x++ {
		for mm := 0; mm <= 7; mm++ {
			var sum float64
			for r := 0; r <= x+mm; r++ {
				sum += m.Omega4(x, r, mm)
			}
			if !almostEq(sum, 1, 1e-9) {
				t.Fatalf("x=%d m=%d: Σ_r Ω4 = %v", x, mm, sum)
			}
		}
	}
}

// TestLambda1IsDistributionOverPhi sums Λ1(τ, ·) over ϕ ≤ Support(τ)
// only: all of its mass must lie inside the support.
func TestLambda1IsDistributionOverPhi(t *testing.T) {
	for _, v := range []int{4, 6, 10} {
		m := NewModel(v, testParams(5))
		for tau := 0; tau <= 5; tau++ {
			var sum float64
			limit := min(Support(tau), v)
			for phi := 0; phi <= limit; phi++ {
				l := m.Lambda1(tau, phi)
				if l < -1e-12 {
					t.Fatalf("negative Λ1(%d,%d) = %v", tau, phi, l)
				}
				sum += l
			}
			if !almostEq(sum, 1, 1e-7) {
				t.Fatalf("v=%d τ=%d: Σ_ϕ Λ1 = %v", v, tau, sum)
			}
		}
	}
}

func TestLambda1AtTauZero(t *testing.T) {
	m := NewModel(8, testParams(4))
	if got := m.Lambda1(0, 0); !almostEq(got, 1, 1e-12) {
		t.Fatalf("Λ1(0,0) = %v", got)
	}
	for phi := 1; phi <= 5; phi++ {
		if got := m.Lambda1(0, phi); got != 0 {
			t.Fatalf("Λ1(0,%d) = %v, want 0", phi, got)
		}
	}
}

// TestLambda1PaperExample7 pins the model to the numbers the paper reports
// for the Figure 1 pair: with |V'1| = 4, |LV| = |LE| = 3 and GBD ϕ = 3,
// Λ1(2,3) ≈ 0.5113 and Λ1(3,3) ≈ 0.5631, while τ = 0, 1 give zero.
func TestLambda1PaperExample7(t *testing.T) {
	m := NewModel(4, testParams(3))
	if got := m.Lambda1(0, 3); got != 0 {
		t.Fatalf("Λ1(0,3) = %v, want 0", got)
	}
	if got := m.Lambda1(1, 3); got != 0 {
		t.Fatalf("Λ1(1,3) = %v, want 0", got)
	}
	if got := m.Lambda1(2, 3); !almostEq(got, 0.5113, 2e-3) {
		t.Fatalf("Λ1(2,3) = %v, want ≈0.5113 (Example 7)", got)
	}
	if got := m.Lambda1(3, 3); !almostEq(got, 0.5631, 2e-3) {
		t.Fatalf("Λ1(3,3) = %v, want ≈0.5631 (Example 7)", got)
	}
}

func TestLambda1FastMatchesNaive(t *testing.T) {
	for _, v := range []int{4, 9, 25} {
		m := NewModel(v, testParams(6))
		for phi := 0; phi <= 10; phi++ {
			fast := m.Lambda1All(phi)
			for tau := 0; tau <= 6; tau++ {
				naive := m.Lambda1Naive(tau, phi)
				if !almostEq(fast[tau], naive, 1e-9) {
					t.Fatalf("v=%d τ=%d ϕ=%d: fast %v, naive %v", v, tau, phi, fast[tau], naive)
				}
			}
		}
	}
}

// TestLambda1ImpossiblePhi is the support theorem: one edit relabels one
// vertex or one edge and so changes at most two branches, and Λ1(τ, ϕ) is
// exactly 0 for ϕ > Support(τ) = 2τ. Below 2τ̂ the values come from the
// full sum (Lambda1All guards only ϕ > 2τ̂), above it from Lambda1Naive,
// which has no guard at all.
func TestLambda1ImpossiblePhi(t *testing.T) {
	const tauMax = 5
	for _, v := range []int{10, 12, 25, 60} {
		m := NewModel(v, testParams(tauMax))
		for phi := 0; phi <= 3*tauMax+1; phi++ {
			var vals []float64
			if phi <= Support(tauMax) {
				vals = m.Lambda1All(phi)
			}
			for tau := 0; tau <= tauMax; tau++ {
				if phi <= Support(tau) {
					continue
				}
				if vals != nil && vals[tau] != 0 {
					t.Fatalf("v=%d: Λ1(%d,%d) = %v from the full sum, want exactly 0", v, tau, phi, vals[tau])
				}
				if got := m.Lambda1Naive(tau, phi); got != 0 {
					t.Fatalf("v=%d: naive Λ1(%d,%d) = %v, want exactly 0", v, tau, phi, got)
				}
			}
		}
	}
	m := NewModel(50, testParams(3))
	// ϕ > 2τ̂ is unreachable: all-zero rows without building tables.
	vals := m.Lambda1All(Support(3) + 1)
	for tau, v := range vals {
		if v != 0 {
			t.Fatalf("Λ1(%d,%d) = %v with τ̂=3", tau, Support(3)+1, v)
		}
	}
	if n := innerCached(m); n != 0 {
		t.Fatalf("ϕ past the support built %d inner tables", n)
	}
	// ϕ > v likewise.
	small := NewModel(2, testParams(3))
	if got := small.Lambda1(3, 3); got != 0 {
		t.Fatalf("Λ1 with ϕ > v = %v", got)
	}
}

func TestDLogOmega1MatchesFiniteDifference(t *testing.T) {
	m := NewModel(12, testParams(8))
	logOmega1 := func(x, tau float64) float64 {
		return prob.LogChoose(float64(m.V), x) + prob.LogChoose(m.c2, tau-x) -
			prob.LogChoose(float64(m.V)+m.c2, tau)
	}
	const h = 1e-6
	for _, tc := range []struct{ x, tau float64 }{
		{1, 3}, {2, 5}, {0, 4}, {3, 8}, {5, 7},
	} {
		fd := (logOmega1(tc.x, tc.tau+h) - logOmega1(tc.x, tc.tau-h)) / (2 * h)
		if got := m.dLogOmega1(tc.x, tc.tau); !almostEq(got, fd, 1e-4) {
			t.Fatalf("dLogΩ1(%v,%v) = %v, FD %v", tc.x, tc.tau, got, fd)
		}
	}
}

// omega2Cont re-evaluates Ω2 at a real-valued y using exactly the model's
// support convention (out-of-support binomials are zero), so finite
// differences of it validate the tabulated derivative at points where no
// term sits on a support boundary.
func omega2Cont(v, mm int, y float64) float64 {
	c2 := prob.Choose2(float64(v))
	logDen := prob.LogChoose(c2, y)
	if math.IsInf(logDen, -1) {
		return 0
	}
	var acc prob.SignedLogAcc
	logCvm := prob.LogChoose(float64(v), float64(mm))
	for t := 0; t <= mm; t++ {
		ct2 := prob.Choose2(float64(t))
		logTerm := logCvm + prob.LogChoose(float64(mm), float64(t)) +
			prob.LogChoose(ct2, y) - logDen
		if math.IsInf(logTerm, -1) {
			continue
		}
		sign := 1.0
		if (mm-t)%2 == 1 {
			sign = -1
		}
		acc.Add(sign, logTerm)
	}
	lg, sg := acc.Result()
	if sg <= 0 {
		return 0
	}
	return math.Exp(lg)
}

func TestOmega2DerivativeMatchesFiniteDifference(t *testing.T) {
	// y values avoiding the triangular numbers {1,3,6,10,15}, where a
	// term enters/leaves support and one-sided derivatives apply.
	const h = 1e-6
	for _, v := range []int{6, 9} {
		m := NewModel(v, testParams(9))
		for _, y := range []int{2, 4, 5, 7, 8} {
			for mm := 0; mm <= 2*y && mm <= v; mm++ {
				fd := (omega2Cont(v, mm, float64(y)+h) - omega2Cont(v, mm, float64(y)-h)) / (2 * h)
				got := m.omega2d[y][mm]
				if !almostEq(got, fd, 1e-3) && math.Abs(got-fd) > 1e-7 {
					t.Fatalf("v=%d y=%d m=%d: dΩ2 = %v, FD %v", v, y, mm, got, fd)
				}
			}
		}
	}
}

func TestModelDegenerateAlphabet(t *testing.T) {
	// |LV| = 1, |LE| = 0 with v = 1: D = 1, every branch identical, so a
	// relabel never changes the multiset: Ω3(r, 0) = 1.
	m := NewModel(1, Params{LV: 1, LE: 0, TauMax: 2})
	if !m.dIsOne {
		t.Fatal("expected degenerate branch universe")
	}
	if m.Omega3(3, 0) != 1 || m.Omega3(3, 1) != 0 {
		t.Fatalf("degenerate Ω3 = %v, %v", m.Omega3(3, 0), m.Omega3(3, 1))
	}
}

func TestModelLargeVStability(t *testing.T) {
	// The whole point of log space: v = 100_000 must produce finite,
	// normalised Λ1 rows without overflow.
	m := NewModel(100_000, Params{LV: 5, LE: 4, TauMax: 10})
	for tau := 0; tau <= 10; tau += 5 {
		var sum float64
		for phi := 0; phi <= Support(tau); phi++ {
			l := m.Lambda1(tau, phi)
			if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
				t.Fatalf("Λ1(%d,%d) = %v", tau, phi, l)
			}
			sum += l
		}
		if !almostEq(sum, 1, 1e-6) {
			t.Fatalf("τ=%d: Σ_ϕ Λ1 = %v at v=1e5", tau, sum)
		}
	}
}
