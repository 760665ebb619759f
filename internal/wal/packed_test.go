package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"gsim/internal/graph"
)

// appendRecordRef is the record encoder that walks the graph itself: the
// label table in first-use order over vertices, then edges, then the body
// coded through it. AppendPacked must write the same bytes from the
// packed form.
func appendRecordRef(buf []byte, op Op, id uint64, g *graph.Graph, dict *graph.Labels) []byte {
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, id)
	buf = graph.AppendString(buf, g.Name)
	table := make(map[graph.ID]uint64)
	var names []string
	note := func(l graph.ID) {
		if _, ok := table[l]; !ok {
			table[l] = uint64(len(names))
			names = append(names, dict.Name(l))
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		note(g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		note(e.Label)
	}
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, s := range names {
		buf = graph.AppendString(buf, s)
	}
	return graph.AppendBody(buf, g, func(l graph.ID) uint64 { return table[l] })
}

// TestPackedRecordRoundTrip: a record encoded from the packed form is the
// graph-walking encoder's byte for byte, and decodes, into a fresh
// dictionary, to an equal graph with the same label names. Labels are
// drawn from 300 names, so dictionary IDs and table codes both reach two
// varint bytes and vertex and edge labels share names.
func TestPackedRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	dict := graph.NewLabels()
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		g := graph.New(n)
		g.Name = fmt.Sprintf("g%d", trial)
		for v := 0; v < n; v++ {
			g.AddVertex(dict.Intern(fmt.Sprintf("l%d", rng.Intn(300))))
		}
		for i := 0; n > 1 && i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, dict.Intern(fmt.Sprintf("l%d", rng.Intn(300))))
			}
		}
		op := []Op{OpStore, OpUpdate}[trial%2]
		id := uint64(rng.Int63n(1 << 40))
		got := AppendPacked([]byte{0xAA}, op, id, graph.Pack(g), dict)
		if want := appendRecordRef([]byte{0xAA}, op, id, g, dict); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: AppendPacked wrote\n%x\nthe graph encodes to\n%x", trial, got, want)
		}
		fresh := graph.NewLabels()
		rec, err := DecodeRecord(got[1:], fresh)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rec.Op != op || rec.ID != id || rec.G == nil {
			t.Fatalf("trial %d: decoded op=%v id=%d", trial, rec.Op, rec.ID)
		}
		graphsEqual(t, g, rec.G, dict, fresh)
	}
}
