package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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

// TestPackedLenMatchesRecord holds PackedLen to the length of the record
// AppendPacked writes: on the pinned fixtures, and on random graphs whose
// label tables outgrow the in-place search and whose IDs, codes and
// endpoints reach multi-byte uvarints.
func TestPackedLenMatchesRecord(t *testing.T) {
	dict := graph.NewLabels()
	dict.Intern("unused")
	for _, tc := range []struct {
		file string
		op   Op
		id   uint64
		g    graph.Packed
	}{
		{"store.rec", OpStore, 300, graph.Pack(pinGraph(dict))},
		{"delete.rec", OpDelete, 70000, graph.Packed{}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := PackedLen(tc.op, tc.id, tc.g, dict); got != len(want) {
			t.Fatalf("%s: PackedLen = %d, the record takes %d bytes", tc.file, got, len(want))
		}
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		alphabet := 1 + rng.Intn(300)
		g := graph.New(n)
		g.Name = strings.Repeat("n", rng.Intn(200))
		for v := 0; v < n; v++ {
			g.AddVertex(dict.Intern(fmt.Sprintf("l%d", rng.Intn(alphabet))))
		}
		for i := 0; n > 1 && i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, dict.Intern(fmt.Sprintf("l%d", rng.Intn(alphabet))))
			}
		}
		op := []Op{OpStore, OpUpdate, OpDelete}[trial%3]
		id := []uint64{0, 127, 128, uint64(rng.Int63()), math.MaxUint64}[trial%5]
		p := graph.Pack(g)
		if op == OpDelete {
			p = graph.Packed{}
		}
		want := len(AppendPacked(nil, op, id, p, dict))
		if got := PackedLen(op, id, p, dict); got != want {
			t.Fatalf("trial %d (%v, id %d, %d vertices): PackedLen = %d, AppendPacked wrote %d bytes",
				trial, op, id, n, got, want)
		}
	}
}
