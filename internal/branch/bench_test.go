package branch

import (
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/graph"
)

func benchGraph(n, deg int) *graph.Graph {
	dict := graph.NewLabels()
	rng := rand.New(rand.NewSource(1))
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(dict.Intern(string(rune('A' + rng.Intn(10)))))
	}
	for i := 0; i < deg*n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, dict.Intern(string(rune('a'+rng.Intn(10)))))
		}
	}
	return g
}

func BenchmarkMultisetOf(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		g := benchGraph(n, 8)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = MultisetOf(g)
			}
		})
	}
}

func BenchmarkGBDPrecomputed(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		m1 := MultisetOf(benchGraph(n, 8))
		m2 := MultisetOf(benchGraph(n, 8))
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = GBD(m1, m2)
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1000 {
		return fmt.Sprintf("n=%dK", n/1000)
	}
	return fmt.Sprintf("n=%d", n)
}
