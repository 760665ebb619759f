package wal

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gsim/internal/graph"
)

// Op is the mutation kind a record carries.
type Op uint8

const (
	// OpStore inserts (or, on replay, upserts) a graph under an ID.
	OpStore Op = 1
	// OpUpdate replaces the graph under an existing ID.
	OpUpdate Op = 2
	// OpDelete removes the graph under an ID.
	OpDelete Op = 3
)

// String names the op for error messages.
func (op Op) String() string {
	switch op {
	case OpStore:
		return "store"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Record is one decoded mutation. G is nil for OpDelete.
type Record struct {
	Op Op
	ID uint64
	G  *graph.Graph
}

// Record payload layout (all integers uvarint unless noted):
//
//	kind   byte                      (OpStore | OpUpdate | OpDelete)
//	id     uvarint
//	-- OpDelete ends here --
//	name   len + bytes
//	labels count, then count × (len + bytes)   local label table
//	body   graph.AppendBody, labels coded as label-table indexes
//
// Labels travel as strings (deduplicated per record in a local table), so
// a log never references a dictionary that may not survive the crash: on
// replay each label is re-interned into whatever dictionary the recovered
// database carries. Graph label alphabets are tiny in practice, so the
// table costs a few bytes, not a copy of the dictionary.

// AppendRecord encodes one mutation onto buf and returns the extended
// slice: AppendPacked of g packed. dict resolves the graph's interned
// label IDs back to strings; it is unused for OpDelete (g nil).
func AppendRecord(buf []byte, op Op, id uint64, g *graph.Graph, dict *graph.Labels) []byte {
	var p graph.Packed
	if g != nil {
		p = graph.Pack(g)
	}
	return AppendPacked(buf, op, id, p, dict)
}

// bodyScratch is how many re-coded body bytes AppendPacked holds on the
// stack before they join the record.
const bodyScratch = 512

// AppendPacked encodes one mutation of the packed graph p onto buf and
// returns the extended slice. dict resolves the graph's interned label
// IDs back to strings; it is unused for OpDelete (p the zero Packed).
func AppendPacked(buf []byte, op Op, id uint64, p graph.Packed, dict *graph.Labels) []byte {
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, id)
	if op == OpDelete {
		return buf
	}
	buf = graph.AppendString(buf, p.Name)

	// The local label table: a dense index for every distinct label the
	// graph uses, in first-use order over vertices then edges — the order
	// the body lists them, so one walk over the body both builds the
	// table and re-codes the labels. The table goes first in the record.
	var t labelTable
	var scratch [bodyScratch]byte
	body := p.AppendBody(scratch[:0], t.code)
	buf = binary.AppendUvarint(buf, uint64(t.n))
	for c := 0; c < t.n; c++ {
		buf = graph.AppendString(buf, dict.Name(t.label(c)))
	}
	return append(buf, body...)
}

// PackedLen returns len(AppendPacked(nil, op, id, p, dict)) without
// encoding the record: what a write checks against MaxRecordBytes.
func PackedLen(op Op, id uint64, p graph.Packed, dict *graph.Labels) int {
	n := 1 + uvarintLen(id)
	if op == OpDelete {
		return n
	}
	n += uvarintLen(uint64(len(p.Name))) + len(p.Name)
	var t labelTable
	n += p.BodyLen(func(l graph.ID) int { return uvarintLen(t.code(l)) })
	n += uvarintLen(uint64(t.n))
	for c := 0; c < t.n; c++ {
		name := dict.Name(t.label(c))
		n += uvarintLen(uint64(len(name))) + len(name)
	}
	return n
}

// uvarintLen is the length of x's uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// labelTable assigns a record's local label codes: a dense index per
// distinct label, in first-use order. A graph uses a handful of labels
// and every label of its body asks for its code, so the first
// linearLabels are searched in place and only a larger table is indexed
// by a map. Its zero value is empty.
type labelTable struct {
	n     int                    // labels so far
	small [linearLabels]graph.ID // the labels of codes below linearLabels
	more  []graph.ID             // the labels of the codes after them
	codes map[graph.ID]uint64    // every label's code, once n passes linearLabels
}

const linearLabels = 16

// code returns l's code, assigning the next one on first use.
func (t *labelTable) code(l graph.ID) uint64 {
	if t.codes == nil {
		for c, x := range t.small[:t.n] {
			if x == l {
				return uint64(c)
			}
		}
		if t.n < linearLabels {
			t.small[t.n] = l
			t.n++
			return uint64(t.n - 1)
		}
		t.codes = make(map[graph.ID]uint64, 2*linearLabels)
		for c, x := range t.small {
			t.codes[x] = uint64(c)
		}
	}
	c, ok := t.codes[l]
	if !ok {
		c = uint64(t.n)
		t.codes[l] = c
		t.more = append(t.more, l)
		t.n++
	}
	return c
}

// label returns the label of code c.
func (t *labelTable) label(c int) graph.ID {
	if c < linearLabels {
		return t.small[c]
	}
	return t.more[c-linearLabels]
}

// DecodeRecord parses one record payload, interning its labels into dict.
// The payload has already passed the CRC, so a parse error means a codec
// bug or version skew, not bit rot — callers should fail recovery loudly.
func DecodeRecord(payload []byte, dict *graph.Labels) (Record, error) {
	c := graph.NewCursor(payload)
	op := Op(c.Byte())
	rec := Record{Op: op, ID: c.Uvarint()}
	switch op {
	case OpDelete:
	case OpStore, OpUpdate:
		name := c.Str()
		ids := make([]graph.ID, c.Count("label"))
		for i := range ids {
			ids[i] = dict.Intern(c.Str())
		}
		rec.G = c.Body(name, func(i uint64) (graph.ID, bool) {
			if i >= uint64(len(ids)) {
				return 0, false
			}
			return ids[i], true
		})
	default:
		return Record{}, fmt.Errorf("wal: unknown record kind %d", op)
	}
	if err := c.Done(); err != nil {
		return Record{}, fmt.Errorf("wal: bad %v record: %w", op, err)
	}
	return rec, nil
}
