package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The .gsim text format, one graph per stanza:
//
//	g <name> <numVertices>
//	v <index> <label>
//	e <u> <v> <label>
//	#  comment lines and blank lines are ignored
//
// Names and labels are whitespace-delimited tokens. A token that could not
// survive that framing is escaped with a backslash: `\0` stands for the
// empty token, `\uXXXX` for a (Unicode) whitespace rune, and `\u005c` for
// a literal backslash — so every name and label round-trips, while a file
// without backslashes reads exactly as its bytes say. The format is meant
// to be diff-friendly and easy to produce from other tools.

// Write encodes g to w in .gsim text form, resolving labels through dict:
// the stanza is assembled in one buffer, under one dictionary read lock,
// and handed to w in one Write.
func Write(w io.Writer, g *Graph, dict *Labels) error {
	bp := stanzas.Get().(*[]byte)
	buf := (*bp)[:0]
	dict.View(func(v LabelView) {
		buf = append(buf, "g "...)
		buf = appendToken(buf, g.Name)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
		buf = append(buf, '\n')
		for u, l := range g.vlabels {
			buf = append(buf, "v "...)
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, ' ')
			buf = appendToken(buf, v.Name(l))
			buf = append(buf, '\n')
		}
		for u := range g.vlabels {
			for _, h := range g.Neighbors(u) {
				if int(h.To) > u { // Edges() order
					buf = append(buf, "e "...)
					buf = strconv.AppendInt(buf, int64(u), 10)
					buf = append(buf, ' ')
					buf = strconv.AppendInt(buf, int64(h.To), 10)
					buf = append(buf, ' ')
					buf = appendToken(buf, v.Name(h.Label))
					buf = append(buf, '\n')
				}
			}
		}
	})
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledStanza {
		*bp = buf
		stanzas.Put(bp)
	}
	return err
}

// stanzas recycles Write's stanza buffers; one larger than
// maxPooledStanza is left to the collector rather than kept.
var stanzas = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledStanza = 64 << 10

// needsEscape reports whether r cannot appear raw inside a token.
func needsEscape(r rune) bool { return r == '\\' || unicode.IsSpace(r) }

// appendToken appends s rendered as one whitespace-free, non-empty token.
func appendToken(buf []byte, s string) []byte {
	if s == "" {
		return append(buf, `\0`...)
	}
	if strings.IndexFunc(s, needsEscape) < 0 {
		return append(buf, s...)
	}
	for i := 0; i < len(s); {
		// Decode by hand to keep the byte width: invalid UTF-8 decodes to
		// U+FFFD one byte at a time and must be copied through unchanged.
		r, n := utf8.DecodeRuneInString(s[i:])
		if needsEscape(r) {
			buf = append(buf, `\u`...)
			for shift := 12; shift >= 4 && r>>shift == 0; shift -= 4 {
				buf = append(buf, '0') // at least four hex digits
			}
			buf = strconv.AppendInt(buf, int64(r), 16)
		} else {
			buf = append(buf, s[i:i+n]...)
		}
		i += n
	}
	return buf
}

// unescapeToken inverts appendToken.
func unescapeToken(tok string) (string, error) {
	if strings.IndexByte(tok, '\\') < 0 {
		return tok, nil
	}
	var b strings.Builder
	for i := 0; i < len(tok); i++ {
		if tok[i] != '\\' {
			b.WriteByte(tok[i])
			continue
		}
		rest := tok[i+1:]
		switch {
		case strings.HasPrefix(rest, "0"):
			i++
		case len(rest) >= 5 && rest[0] == 'u':
			r, err := strconv.ParseUint(rest[1:5], 16, 16)
			if err != nil {
				return "", fmt.Errorf("bad escape in %q", tok)
			}
			b.WriteRune(rune(r))
			i += 5
		default:
			return "", fmt.Errorf("bad escape in %q", tok)
		}
	}
	return b.String(), nil
}

// ReadAll parses every graph stanza from r, interning labels into dict,
// and returns the graphs ReadEach hands over.
func ReadAll(r io.Reader, dict *Labels) ([]*Graph, error) {
	var out []*Graph
	if err := ReadEach(r, dict, func(g *Graph) error {
		out = append(out, g)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadEach parses the graph stanzas of r one at a time, interning labels
// into dict, builds each graph through FromEdges and hands it to fn, which
// may keep it; the first error fn returns stops the read and is returned.
// A header's vertex count must match the vertices its stanza lists;
// nothing is sized from it, so a header cannot drive an allocation the
// input does not back.
func ReadEach(r io.Reader, dict *Labels, fn func(*Graph) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		open         bool // a stanza is being read
		name         string
		want, header int // the open stanza's vertex count and header line
		line         int
		fields       [4][]byte
		// The open stanza's vertices and edges, reused across stanzas.
		vlabels = make([]ID, 0, 256)
		edges   = make([]Edge, 0, 512)
	)
	finish := func() error {
		if !open {
			return nil
		}
		open = false
		if len(vlabels) != want {
			return fmt.Errorf("gsim:%d: header declares %d vertices, stanza lists %d", header, want, len(vlabels))
		}
		g, err := FromEdges(name, slices.Clone(vlabels), edges)
		if err != nil {
			return fmt.Errorf("gsim:%d: %v", header, err)
		}
		vlabels, edges = vlabels[:0], edges[:0]
		return fn(g)
	}
	// known caches the IDs of the label tokens this read has resolved,
	// so the dictionary's lock is taken once per distinct label, not once
	// per line: an interned ID never changes.
	known := make(map[string]ID)
	label := func(tok []byte) (ID, error) {
		if id, ok := known[string(tok)]; ok {
			return id, nil
		}
		var id ID
		if bytes.IndexByte(tok, '\\') < 0 {
			id = dict.internBytes(tok)
		} else {
			s, err := unescapeToken(string(tok))
			if err != nil {
				return 0, err
			}
			id = dict.Intern(s)
		}
		if len(known) < maxKnownLabels {
			known[string(tok)] = id
		}
		return id, nil
	}
	parse := func() error {
		for sc.Scan() {
			line++
			n := splitFields(sc.Bytes(), &fields)
			if n == 0 || fields[0][0] == '#' {
				continue
			}
			switch string(fields[0]) {
			case "g":
				if err := finish(); err != nil {
					return err
				}
				if n != 3 {
					return fmt.Errorf("gsim:%d: want 'g <name> <n>', got %q", line, strings.TrimSpace(sc.Text()))
				}
				count, err := strconv.Atoi(string(fields[2]))
				if err != nil || count < 0 {
					return fmt.Errorf("gsim:%d: bad vertex count %q", line, fields[2])
				}
				if name, err = unescapeToken(string(fields[1])); err != nil {
					return fmt.Errorf("gsim:%d: %v", line, err)
				}
				open, want, header = true, count, line
			case "v":
				if !open {
					return fmt.Errorf("gsim:%d: vertex before graph header", line)
				}
				if n != 3 {
					return fmt.Errorf("gsim:%d: want 'v <i> <label>', got %q", line, strings.TrimSpace(sc.Text()))
				}
				idx, err := strconv.Atoi(string(fields[1]))
				if err != nil || idx != len(vlabels) {
					return fmt.Errorf("gsim:%d: vertices must appear in order, got index %q after %d", line, fields[1], len(vlabels))
				}
				if idx == want {
					return fmt.Errorf("gsim:%d: vertex %d exceeds the header's count %d", line, idx, want)
				}
				l, err := label(fields[2])
				if err != nil {
					return fmt.Errorf("gsim:%d: %v", line, err)
				}
				vlabels = append(vlabels, l)
			case "e":
				if !open {
					return fmt.Errorf("gsim:%d: edge before graph header", line)
				}
				if n != 4 {
					return fmt.Errorf("gsim:%d: want 'e <u> <v> <label>', got %q", line, strings.TrimSpace(sc.Text()))
				}
				u, err1 := strconv.Atoi(string(fields[1]))
				v, err2 := strconv.Atoi(string(fields[2]))
				if err1 != nil || err2 != nil {
					return fmt.Errorf("gsim:%d: bad edge endpoints %q", line, strings.TrimSpace(sc.Text()))
				}
				l, err := label(fields[3])
				if err != nil {
					return fmt.Errorf("gsim:%d: %v", line, err)
				}
				// Duplicates are FromEdges' to find, when the stanza ends.
				if err := CheckEdge(name, len(vlabels), u, v, false); err != nil {
					return fmt.Errorf("gsim:%d: %v", line, err)
				}
				edges = append(edges, Edge{U: int32(u), V: int32(v), Label: l})
			default:
				return fmt.Errorf("gsim:%d: unknown record %q", line, fields[0])
			}
		}
		return nil
	}
	// A reader that fails mid-line (a body over its size cap) leaves the
	// scanner a truncated last line, so its error, not the parse error
	// the truncation causes, is the one to report — unwrapped, for
	// errors.As.
	if err := parse(); err != nil || sc.Err() != nil {
		if rerr := sc.Err(); rerr != nil {
			return rerr
		}
		return err
	}
	return finish()
}

// maxKnownLabels caps ReadEach's cache of resolved label tokens; an input
// with a larger alphabet resolves the rest through the dictionary.
const maxKnownLabels = 4096

// asciiSpace marks the ASCII bytes unicode.IsSpace reports.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line around Unicode white space as strings.Fields
// does, storing the first len(f) fields in f without copying, and reports
// how many fields the line holds.
func splitFields(line []byte, f *[4][]byte) int {
	n := 0
	start := -1
	for i := 0; i <= len(line); {
		space, w := true, 1
		if i < len(line) {
			if c := line[i]; c < utf8.RuneSelf {
				space = asciiSpace[c]
			} else {
				var r rune
				r, w = utf8.DecodeRune(line[i:])
				space = unicode.IsSpace(r)
			}
		}
		switch {
		case !space && start < 0:
			start = i
		case space && start >= 0:
			if n < len(f) {
				f[n] = line[start:i]
			}
			n++
			start = -1
		}
		i += w
	}
	return n
}
