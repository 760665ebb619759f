package graph

import (
	"bytes"
	"testing"
)

// FuzzPacked holds the packed form to the graph it packs: for every graph
// FromEdges accepts, Unpack gives back an Equal graph under the same name,
// NumVertices matches, the body is AppendBody's with labels coded as their
// own IDs, and re-coding it through Packed.AppendBody equals AppendBody of
// the graph. Inputs are FuzzFromEdges': a vertex count and (u, v, label)
// byte triples, here with signed labels so negative IDs occur too. Seeds
// live in testdata/fuzz.
func FuzzPacked(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		nv := int(n % 32)
		vlabels := make([]ID, nv)
		for v := range vlabels {
			vlabels[v] = ID(v%5) - 1
		}
		var edges []Edge
		for i := 0; i+2 < len(data); i += 3 {
			edges = append(edges, Edge{U: int32(int8(data[i])), V: int32(int8(data[i+1])), Label: ID(int8(data[i+2]))})
		}
		g, err := FromEdges("fuzz", vlabels, edges)
		if err != nil {
			return
		}
		p := Pack(g)
		back := p.Unpack()
		if !back.Equal(g) || back.Name != g.Name || p.Name != g.Name {
			t.Fatalf("Pack then Unpack gave %v %v, want %v %v", back, back.Edges(), g, g.Edges())
		}
		if err := back.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.NumVertices() != g.NumVertices() {
			t.Fatalf("NumVertices %d, graph has %d", p.NumVertices(), g.NumVertices())
		}
		if want := AppendBody(nil, g, func(l ID) uint64 { return uint64(l) }); !bytes.Equal(p.Body(), want) {
			t.Fatalf("packed body %x, AppendBody %x", p.Body(), want)
		}
		code := func(l ID) uint64 { return uint64(uint32(l)) * 3 }
		if got, want := p.AppendBody([]byte{7}, code), AppendBody([]byte{7}, g, code); !bytes.Equal(got, want) {
			t.Fatalf("re-coded packed body %x, AppendBody %x", got, want)
		}
		if back2 := p.Unpack(); back2 == back {
			t.Fatal("Unpack returned the same graph twice")
		}
	})
}

// TestUnpackAllocsFlatInSize: unpacking costs the graph's four allocations
// (struct, vertex labels, offsets, half-edges) whatever its size, and
// packing one allocation up to the stack scratch.
func TestUnpackAllocsFlatInSize(t *testing.T) {
	dict := NewLabels()
	for _, n := range []int{6, 60} {
		p := Pack(pathGraph(dict, n))
		if a := testing.AllocsPerRun(20, func() { p.Unpack() }); a != 4 {
			t.Errorf("Unpack of %d vertices: %v allocations, want 4", n, a)
		}
		g := pathGraph(dict, n)
		if a := testing.AllocsPerRun(20, func() { Pack(g) }); a != 1 {
			t.Errorf("Pack of %d vertices: %v allocations, want 1", n, a)
		}
	}
}
