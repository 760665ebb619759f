package graph

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Packed is a graph in its binary body form (AppendBody), every label
// coded as its own ID: byte for byte the body a snapshot segment stores.
// A stored graph is kept packed, a sixth of its CSR size, and unpacked
// only by the callers that need its adjacency.
type Packed struct {
	// Name identifies the graph inside a database.
	Name string

	body []byte // never modified after Pack
}

// rawID codes a label as its own ID, the code of a packed body.
func rawID(l ID) uint64 { return uint64(l) }

// rawLabel decodes what rawID coded.
func rawLabel(code uint64) (ID, bool) { return ID(code), uint64(ID(code)) == code }

// packScratch is how many body bytes Pack writes on the stack: the body
// it keeps is then its only allocation.
const packScratch = 512

// Pack returns g packed.
func Pack(g *Graph) Packed {
	var scratch [packScratch]byte
	buf := AppendBody(scratch[:0], g, rawID)
	body := make([]byte, len(buf))
	copy(body, buf)
	return Packed{Name: g.Name, body: body}
}

// NumVertices reports |V|, the body's first uvarint.
func (p Packed) NumVertices() int {
	nv, _ := binary.Uvarint(p.body)
	return int(nv)
}

// Body returns the packed body. The caller must not modify it.
func (p Packed) Body() []byte { return p.body }

// Unpack decodes the graph, through Cursor.Body, into a fresh Graph the
// caller owns.
func (p Packed) Unpack() *Graph {
	c := NewCursor(p.body)
	g := c.Body(p.Name, rawLabel)
	if err := c.Done(); err != nil {
		panic(fmt.Sprintf("graph: packed graph %q: %v", p.Name, err)) // Pack wrote it
	}
	return g
}

// AppendBody appends p's body to buf with every label coded as
// code(label) instead, and returns the extended slice: AppendBody of the
// unpacked graph, without unpacking it. code sees the labels in body
// order, vertex labels and then edge labels.
func (p Packed) AppendBody(buf []byte, code func(ID) uint64) []byte {
	c := NewCursor(p.body)
	nv := c.Uvarint()
	buf = binary.AppendUvarint(buf, nv)
	for i := uint64(0); i < nv; i++ {
		buf = binary.AppendUvarint(buf, code(ID(c.Uvarint())))
	}
	ne := c.Uvarint()
	buf = binary.AppendUvarint(buf, ne)
	for i := uint64(0); i < ne; i++ {
		buf = binary.AppendUvarint(buf, c.Uvarint())
		buf = binary.AppendUvarint(buf, c.Uvarint())
		buf = binary.AppendUvarint(buf, code(ID(c.Uvarint())))
	}
	return buf
}

// BodyLen returns len(p.AppendBody(nil, code)) without writing the body,
// where codeLen(l) is the uvarint length of code(l); it sees the labels
// in the order AppendBody's code does.
func (p Packed) BodyLen(codeLen func(ID) int) int {
	c := NewCursor(p.body)
	nv := c.Uvarint()
	n := uvarintLen(nv)
	for i := uint64(0); i < nv; i++ {
		n += codeLen(ID(c.Uvarint()))
	}
	ne := c.Uvarint()
	n += uvarintLen(ne)
	for i := uint64(0); i < ne; i++ {
		n += uvarintLen(c.Uvarint()) + uvarintLen(c.Uvarint())
		n += codeLen(ID(c.Uvarint()))
	}
	return n
}

// uvarintLen is the length of x's uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
