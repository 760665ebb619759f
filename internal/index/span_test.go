package index

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/dataset"
	"gsim/internal/db"
	"gsim/internal/graph"
)

// fromEdgesSeeds builds the graphs of the FuzzFromEdges seed corpus the
// way that fuzzer does, skipping the seeds FromEdges rejects.
func fromEdgesSeeds(t *testing.T) []*graph.Graph {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "graph", "testdata", "fuzz", "FuzzFromEdges", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzFromEdges seeds: %v (%d files)", err, len(files))
	}
	var out []*graph.Graph
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var n uint8
		if len(lines) != 3 || !strings.HasPrefix(lines[2], "[]byte(") {
			t.Fatalf("%s: not a (uint8, []byte) seed", file)
		}
		if _, err := fmt.Sscanf(lines[1], "uint8(%d)", &n); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		vlabels := make([]graph.ID, n%32)
		for v := range vlabels {
			vlabels[v] = graph.ID(v % 3)
		}
		var edges []graph.Edge
		for i := 0; i+2 < len(data); i += 3 {
			edges = append(edges, graph.Edge{U: int32(int8(data[i])), V: int32(int8(data[i+1])), Label: graph.ID(data[i+2] % 4)})
		}
		if g, err := graph.FromEdges(filepath.Base(file), vlabels, edges); err == nil {
			out = append(out, g)
		}
	}
	if len(out) == 0 {
		t.Fatal("FromEdges accepts no FuzzFromEdges seed")
	}
	return out
}

// graphStats is the statistics of gs read off the graphs themselves, in
// the order a Tally adds them: the reference for a Tally fed spans.
func graphStats(gs []*graph.Graph) db.Stats {
	st := db.Stats{Graphs: len(gs)}
	vl, el := map[graph.ID]bool{}, map[graph.ID]bool{}
	sumDeg := 0.0
	for _, g := range gs {
		st.MaxV, st.MaxE = max(st.MaxV, g.NumVertices()), max(st.MaxE, g.NumEdges())
		sumDeg += g.AvgDegree()
		for v := 0; v < g.NumVertices(); v++ {
			if l := g.VertexLabel(v); l != graph.Epsilon {
				vl[l] = true
			}
		}
		for _, e := range g.Edges() {
			if e.Label != graph.Epsilon {
				el[e.Label] = true
			}
		}
	}
	st.LV, st.LE = len(vl), len(el)
	if len(gs) > 0 {
		st.AvgDegree = sumDeg / float64(len(gs))
	}
	return st
}

// TestSpanColumnsMatchGraph: what a shard keeps of a stored graph, read
// off its entry's label span, is what the graph itself gives — SpanSig is
// bit-identical to Sig, and a Tally fed the spans reports the Stats of
// the graphs, before and after removing half of them. The graphs are the
// AASD generator's at scale 0.05 and the FuzzFromEdges seeds.
func TestSpanColumnsMatchGraph(t *testing.T) {
	cfg, err := dataset.Profile("aasd", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gs []*graph.Graph
	for i := 0; i < ds.Col.Len(); i++ {
		gs = append(gs, ds.Col.Graph(i))
	}
	gs = append(gs, fromEdgesSeeds(t)...)
	tally := db.NewTally()
	spans := make([]string, len(gs))
	for i, g := range gs {
		spans[i] = db.NewEntry(uint64(i), g, branch.Coded{}).Labels
		if got, want := SpanSig(spans[i]), Sig(g); got != want {
			t.Fatalf("graph %d (%s): span signs to %#x, graph to %#x", i, g.Name, got, want)
		}
		tally.Add(spans[i])
	}
	if got, want := tally.Stats(), graphStats(gs); got != want {
		t.Fatalf("span tally %+v, graphs %+v", got, want)
	}
	var kept []*graph.Graph
	for i, g := range gs {
		if i%2 == 0 {
			tally.Remove(spans[i])
		} else {
			kept = append(kept, g)
		}
	}
	got, want := tally.Stats(), graphStats(kept)
	if d := got.AvgDegree - want.AvgDegree; d > 1e-9 || d < -1e-9 {
		t.Fatalf("average degree %v after removals, graphs say %v", got.AvgDegree, want.AvgDegree)
	}
	got.AvgDegree = want.AvgDegree
	if got != want {
		t.Fatalf("span tally %+v after removals, graphs %+v", got, want)
	}
}
