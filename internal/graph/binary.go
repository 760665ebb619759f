package graph

import (
	"encoding/binary"
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
	if c.err == nil && len(c.buf) != 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.buf))
	}
	return c.err
}

func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.buf) == 0 {
		c.fail("truncated payload")
		return 0
	}
	b := c.buf[0]
	c.buf = c.buf[1:]
	return b
}

// Uvarint reads one uvarint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.fail("truncated varint")
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
		c.fail("%s count %d exceeds remaining %d bytes", what, v, len(c.buf))
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
// code out of range. It checks every endpoint and builds the graph through
// FromEdges, which checks its simplicity, and returns nil after any
// failure, which Err then reports.
func (c *Cursor) Body(name string, decode func(uint64) (ID, bool)) *Graph {
	label := func(what string) ID {
		code := c.Uvarint()
		l, ok := decode(code)
		if c.err == nil && !ok {
			c.fail("%s label %d out of range", what, code)
		}
		return l
	}
	vlabels := make([]ID, c.Count("vertex"))
	for v := range vlabels {
		vlabels[v] = label("vertex")
	}
	edges := make([]Edge, c.Count("edge"))
	for i := range edges {
		u, v := c.Uvarint(), c.Uvarint()
		edges[i] = Edge{U: int32(u), V: int32(v), Label: label("edge")}
		if c.err == nil && (u > math.MaxInt32 || v > math.MaxInt32) {
			c.fail("edge endpoint (%d,%d) out of range", u, v)
		}
	}
	if c.err != nil {
		return nil
	}
	g, err := FromEdges(name, vlabels, edges)
	if err != nil {
		c.err = err
		return nil
	}
	return g
}
