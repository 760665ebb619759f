package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gsim/internal/graph"
)

// pinGraph is the graph behind the store-record fixture: five vertex
// labels, three edge labels reused across a ring of five edges.
func pinGraph(dict *graph.Labels) *graph.Graph {
	g := graph.New(5)
	g.Name = "pin-record"
	for _, l := range []string{"C", "N", "C", "O", "S"} {
		g.AddVertex(dict.Intern(l))
	}
	g.MustAddEdge(0, 1, dict.Intern("single"))
	g.MustAddEdge(1, 2, dict.Intern("double"))
	g.MustAddEdge(2, 3, dict.Intern("single"))
	g.MustAddEdge(3, 4, dict.Intern("aromatic"))
	g.MustAddEdge(4, 0, dict.Intern("single"))
	return g
}

// TestRecordFormatPinned holds AppendRecord to the bytes checked in under
// testdata, and DecodeRecord to reading them back: a log written by an
// earlier build must replay unchanged.
func TestRecordFormatPinned(t *testing.T) {
	dict := graph.NewLabels()
	dict.Intern("unused") // label IDs differ from table indexes
	g := pinGraph(dict)
	for _, tc := range []struct {
		file string
		op   Op
		id   uint64
		g    *graph.Graph
	}{
		{"store.rec", OpStore, 300, g},
		{"delete.rec", OpDelete, 70000, nil},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRecord(nil, tc.op, tc.id, tc.g, dict); !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendRecord wrote\n%x\nwant\n%x", tc.file, got, want)
		}
		fresh := graph.NewLabels()
		rec, err := DecodeRecord(want, fresh)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if rec.Op != tc.op || rec.ID != tc.id || (rec.G == nil) != (tc.g == nil) {
			t.Fatalf("%s: decoded op=%v id=%d graph=%v", tc.file, rec.Op, rec.ID, rec.G != nil)
		}
		if tc.g != nil {
			graphsEqual(t, tc.g, rec.G, dict, fresh)
		}
	}
}
