package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary graph body: the one per-graph layout both durable forms carry —
// the WAL record (internal/wal) and the snapshot segment (internal/db).
// All integers are uvarints:
//
//	nv, then nv × vertex label code
//	ne, then ne × (u, v, edge label code)   edges in Edges() order
//
// A label code is whatever the container maps label IDs to: an index into
// a record-local string table, or a raw manifest dictionary ID. The
// container writes its own framing (kind, ID, name, table, magic, CRC)
// around the body.

// AppendBody appends g's body to buf, writing each label as code(label),
// and returns the extended slice.
func AppendBody(buf []byte, g *Graph, code func(ID) uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(g.vlabels)))
	for _, l := range g.vlabels {
		buf = binary.AppendUvarint(buf, code(l))
	}
	buf = binary.AppendUvarint(buf, uint64(g.NumEdges()))
	for u := range g.vlabels {
		for _, h := range g.Neighbors(u) {
			if int(h.To) > u {
				buf = binary.AppendUvarint(buf, uint64(u))
				buf = binary.AppendUvarint(buf, uint64(h.To))
				buf = binary.AppendUvarint(buf, code(h.Label))
			}
		}
	}
	return buf
}

// AppendString appends s with its uvarint length, the form Str reads.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Cursor reads a binary payload with a sticky error: once a read fails,
// every later read is a no-op returning the zero value, so parse code
// reads linearly and checks Err (or Done) once.
type Cursor struct {
	buf []byte
	err error
}

// NewCursor returns a cursor over buf.
func NewCursor(buf []byte) Cursor { return Cursor{buf: buf} }

// Err reports the first failed read, or nil.
func (c *Cursor) Err() error { return c.err }

// Done reports the first failed read, or an error if bytes remain unread.
func (c *Cursor) Done() error {
	if len(c.buf) != 0 {
		c.fail(fmt.Errorf("%d trailing bytes", len(c.buf)))
	}
	return c.err
}

// fail records err unless a failure is recorded already, and empties the
// cursor, so every later read fails too.
func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err, c.buf = err, nil
	}
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.buf) == 0 {
		c.fail(errors.New("truncated payload"))
		return 0
	}
	b := c.buf[0]
	c.buf = c.buf[1:]
	return b
}

// Uvarint reads one uvarint. Most of a body's are one byte, read without
// the general decoder.
func (c *Cursor) Uvarint() uint64 {
	if b := c.buf; len(b) > 0 && b[0] < 0x80 {
		c.buf = b[1:]
		return uint64(b[0])
	}
	return c.uvarint()
}

func (c *Cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail(errors.New("truncated varint"))
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// Count reads a uvarint that sizes an upcoming run of elements, each at
// least one byte long, so it is bounded by the bytes remaining: a corrupt
// count cannot drive a huge allocation.
func (c *Cursor) Count(what string) int {
	v := c.Uvarint()
	if c.err == nil && v > uint64(len(c.buf)) {
		c.fail(fmt.Errorf("%s count %d exceeds remaining %d bytes", what, v, len(c.buf)))
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string.
func (c *Cursor) Str() string {
	n := c.Count("string byte")
	if c.err != nil {
		return ""
	}
	s := string(c.buf[:n])
	c.buf = c.buf[n:]
	return s
}

// Body reads one graph body (see AppendBody) into a graph called name,
// resolving each label code through decode, which reports false for a
// code out of range. It reads the edges twice, straight into the runs:
// once to check every endpoint and label and count degrees, then again to
// place them (see startRuns); sealing the runs finds duplicates. It
// returns nil after any failure, which Err then reports.
func (c *Cursor) Body(name string, decode func(uint64) (ID, bool)) *Graph {
	label := func(what string) ID {
		code := c.Uvarint()
		l, ok := decode(code)
		if c.err == nil && !ok {
			c.fail(fmt.Errorf("%s label %d out of range", what, code))
		}
		return l
	}
	vlabels := make([]ID, c.Count("vertex"))
	for v := range vlabels {
		vlabels[v] = label("vertex")
	}
	ne := c.Count("edge")
	if c.err != nil {
		return nil
	}
	g, err := startRuns(name, vlabels, ne)
	if err != nil {
		c.fail(err)
		return nil
	}
	edges := *c // where the filling pass starts
	for i := 0; i < ne; i++ {
		u, v := c.Uvarint(), c.Uvarint()
		label("edge")
		if c.err != nil {
			return nil
		}
		if u > math.MaxInt32 || v > math.MaxInt32 {
			c.fail(fmt.Errorf("edge endpoint (%d,%d) out of range", u, v))
			return nil
		}
		if err := CheckEdge(name, len(vlabels), int(u), int(v), false); err != nil {
			c.fail(err)
			return nil
		}
		g.count(int32(u), int32(v))
	}
	g.sumRuns()
	for i := 0; i < ne; i++ {
		u, v := edges.Uvarint(), edges.Uvarint()
		l, _ := decode(edges.Uvarint())
		g.place(int32(u), int32(v), l)
	}
	if err := g.seal(); err != nil {
		c.fail(err)
		return nil
	}
	return g
}
