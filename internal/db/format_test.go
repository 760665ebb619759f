package db

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

// pinSegment builds the two entries behind the segment fixture. The
// dictionary holds 200 labels, so some label IDs take two varint bytes,
// and the IDs are out of order and multi-byte.
func pinSegment() (dict *graph.Labels, entries []*Entry) {
	dict = graph.NewLabels()
	for i := 0; i < 200; i++ {
		dict.Intern(fmt.Sprintf("l%d", i))
	}
	a := graph.New(4)
	a.Name = "pin-a"
	for _, l := range []string{"l3", "l150", "l3", "l199"} {
		a.AddVertex(dict.Intern(l))
	}
	a.MustAddEdge(0, 1, dict.Intern("l7"))
	a.MustAddEdge(1, 2, dict.Intern("l130"))
	a.MustAddEdge(3, 0, dict.Intern("l7"))
	b := graph.New(2)
	b.Name = "pin-b"
	b.AddVertex(dict.Intern("l0"))
	b.AddVertex(dict.Intern("l128"))
	b.MustAddEdge(0, 1, dict.Intern("l1"))
	return dict, []*Entry{NewEntry(70000, a, branch.Coded{}), NewEntry(5, b, branch.Coded{})}
}

// TestSegmentFormatPinned holds WriteSegment to the bytes checked in under
// testdata, and ReadSegment to reading them back: a data directory
// written by an earlier build must open unchanged.
func TestSegmentFormatPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "two-graphs.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dict, entries := pinSegment()
	var buf bytes.Buffer
	if err := WriteSegment(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteSegment wrote\n%x\nwant\n%x", buf.Bytes(), want)
	}
	ids, gs, err := ReadSegment(bytes.NewReader(want), dict.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint64{70000, 5}) || len(gs) != 2 {
		t.Fatalf("read ids %v, %d graphs", ids, len(gs))
	}
	for i, g := range gs {
		if want := entries[i].G.Unpack(); !g.Equal(want) || g.Name != want.Name {
			t.Fatalf("graph %d read as %v, want %v", i, g, want)
		}
	}
}
