package graph

import (
	"bytes"
	"strings"
	"testing"
)

// roundTrip writes a two-vertex graph carrying the given tokens, reads it
// back through a fresh dictionary and fails unless name, vertex labels and
// edge label come back byte-identical. It returns the encoded text.
func roundTrip(t *testing.T, name, va, vb, el string) string {
	t.Helper()
	dict := NewLabels()
	g := New(2)
	g.Name = name
	g.AddVertex(dict.Intern(va))
	g.AddVertex(dict.Intern(vb))
	g.MustAddEdge(0, 1, dict.Intern(el))
	var buf bytes.Buffer
	if err := Write(&buf, g, dict); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	back := NewLabels()
	gs, err := ReadAll(strings.NewReader(text), back)
	if err != nil {
		t.Fatalf("ReadAll rejected Write's output %q: %v", text, err)
	}
	if len(gs) != 1 || gs[0].NumVertices() != 2 || gs[0].NumEdges() != 1 {
		t.Fatalf("shape changed: %d graphs from %q", len(gs), text)
	}
	got := gs[0]
	l, _ := got.EdgeLabel(0, 1)
	for _, c := range []struct{ what, got, want string }{
		{"name", got.Name, name},
		{"vertex 0 label", back.Name(got.VertexLabel(0)), va},
		{"vertex 1 label", back.Name(got.VertexLabel(1)), vb},
		{"edge label", back.Name(l), el},
	} {
		if c.got != c.want {
			t.Fatalf("%s = %q, want %q (text %q)", c.what, c.got, c.want, text)
		}
	}
	return text
}

// TestCodecRoundTripsEveryToken: names and labels the whitespace framing
// cannot carry raw — empty, containing any Unicode space, containing the
// escape character — survive Write → ReadAll, and tokens that need no
// escaping are written exactly as they are.
func TestCodecRoundTripsEveryToken(t *testing.T) {
	cases := []struct {
		why              string
		name, va, vb, el string
		wire             string // expected encoding; "" = not pinned
	}{
		{why: "plain", name: "mol", va: "C", vb: "N", el: "single",
			wire: "g mol 2\nv 0 C\nv 1 N\ne 0 1 single\n"},
		{why: "empty edge label (wire format's label,omitempty)", name: "m", va: "C", vb: "N", el: "",
			wire: "g m 2\nv 0 C\nv 1 N\ne 0 1 \\0\n"},
		{why: "label with a space", name: "m", va: "C H", vb: "N", el: "x",
			wire: "g m 2\nv 0 C\\u0020H\nv 1 N\ne 0 1 x\n"},
		{why: "name with a space", name: "my mol", va: "C", vb: "N", el: "x"},
		{why: "name with CR", name: "a\rb", va: "C", vb: "N", el: "x"},
		{why: "name with NBSP", name: "a\u00a0b", va: "C", vb: "N", el: "x"},
		{why: "name with newline and tab", name: "a\nb\tc", va: "C", vb: "N", el: "x"},
		{why: "empty name", name: "", va: "C", vb: "N", el: "x"},
		{why: "empty vertex label", name: "m", va: "", vb: "N", el: "x"},
		{why: "backslash", name: `a\b`, va: `\0`, vb: `\u0020`, el: `\`,
			wire: "g a\\u005cb 2\nv 0 \\u005c0\nv 1 \\u005cu0020\ne 0 1 \\u005c\n"},
		{why: "wide Unicode spaces", name: "a\u2028b\u3000c", va: "\u0085", vb: "N", el: "x"},
		{why: "invalid UTF-8 beside U+FFFD", name: "a\xffb\ufffd c", va: "\xc3", vb: "N", el: "x"},
		{why: "comment marker as a label", name: "#", va: "#", vb: "N", el: "#"},
	}
	for _, c := range cases {
		t.Run(c.why, func(t *testing.T) {
			text := roundTrip(t, c.name, c.va, c.vb, c.el)
			if c.wire != "" && text != c.wire {
				t.Fatalf("encoded as %q, want %q", text, c.wire)
			}
		})
	}
}

func TestCodecRejectsBadEscapes(t *testing.T) {
	for _, src := range []string{
		`g a\q 1`,                          // unknown escape
		`g a\ 1`,                           // dangling backslash
		"g a 1\nv 0 \\u00",                 // truncated \u
		"g a 1\nv 0 \\u00zz",               // non-hex \u
		"g a 2\nv 0 A\nv 1 B\ne 0 1 \\x41", // unknown escape in an edge label
	} {
		if _, err := ReadAll(strings.NewReader(src), NewLabels()); err == nil {
			t.Errorf("bad escape accepted: %q", src)
		}
	}
}

// FuzzTextRoundTrip: whatever strings a graph carries as name and labels,
// Write must produce text ReadAll accepts and decodes back to the same
// name, vertices, edges and labels. Seeds live in testdata/fuzz.
func FuzzTextRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, va, vb, el string) {
		roundTrip(t, name, va, vb, el)
	})
}

// TestReadAllChecksVertexCount: a header's vertex count must match the
// vertices its stanza lists. (That it sizes nothing is the server's
// TestTextIngestHugeHeader.)
func TestReadAllChecksVertexCount(t *testing.T) {
	for _, src := range []string{
		"g x 5\nv 0 a\n",               // fewer vertices than declared
		"g x 5\nv 0 a\ng y 1\nv 0 a\n", // ... before the next stanza
		"g x 1\nv 0 a\nv 1 a\n",        // more
	} {
		if gs, err := ReadAll(strings.NewReader(src), NewLabels()); err == nil {
			t.Errorf("ReadAll accepted %q as %d graphs", src, len(gs))
		} else if !strings.HasPrefix(err.Error(), "gsim:") {
			t.Errorf("ReadAll(%q): error %q carries no line number", src, err)
		}
	}
}

// pathGraph is the path over n vertices labeled from a three-letter
// alphabet, every edge labeled "e".
func pathGraph(dict *Labels, n int) *Graph {
	g := New(n)
	g.Name = "path"
	for v := 0; v < n; v++ {
		g.AddVertex(dict.Intern(string(rune('a' + v%3))))
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, dict.Intern("e"))
	}
	return g
}

// TestDecodeAllocsFlatInSize: decoding a graph, from its binary body or
// its text stanza, costs a fixed number of allocations, however many
// vertices it has — a heap object per vertex would show between 6 and 60.
func TestDecodeAllocsFlatInSize(t *testing.T) {
	dict := NewLabels()
	allocs := func(n int) (body, text float64) {
		g := pathGraph(dict, n)
		buf := AppendBody(nil, g, func(l ID) uint64 { return uint64(l) })
		decode := func(code uint64) (ID, bool) { return ID(code), code < uint64(dict.Len()) }
		body = testing.AllocsPerRun(20, func() {
			c := NewCursor(buf)
			if c.Body("path", decode) == nil {
				t.Fatal(c.Err())
			}
		})
		var w bytes.Buffer
		if err := Write(&w, g, dict); err != nil {
			t.Fatal(err)
		}
		text = testing.AllocsPerRun(20, func() {
			if _, err := ReadAll(bytes.NewReader(w.Bytes()), dict); err != nil {
				t.Fatal(err)
			}
		})
		return body, text
	}
	body6, text6 := allocs(6)
	body60, text60 := allocs(60)
	if body60 != body6 {
		t.Errorf("Cursor.Body: %v allocations for 6 vertices, %v for 60", body6, body60)
	}
	if text60 != text6 {
		t.Errorf("ReadAll: %v allocations for 6 vertices, %v for 60", text6, text60)
	}
	t.Logf("Body %v, ReadAll %v allocations per graph", body6, text6)
}
