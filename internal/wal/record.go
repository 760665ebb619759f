package wal

import (
	"encoding/binary"
	"fmt"

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
	table := make(map[graph.ID]uint64, 8)
	var labelScratch [8]graph.ID
	labels := labelScratch[:0]
	var scratch [bodyScratch]byte
	body := p.AppendBody(scratch[:0], func(l graph.ID) uint64 {
		code, ok := table[l]
		if !ok {
			code = uint64(len(labels))
			table[l] = code
			labels = append(labels, l)
		}
		return code
	})
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = graph.AppendString(buf, dict.Name(l))
	}
	return append(buf, body...)
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
