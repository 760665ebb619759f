package db

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"gsim/internal/branch"
	"gsim/internal/graph"
)

// Snapshot segments: the per-shard durable form behind gsim.Open. A
// segment carries explicit graph IDs — recovery must preserve identity,
// not renumber — and no dictionary of its own: label IDs reference the manifest's
// dictionary, written once for the whole checkpoint, so N segments
// encode and decode in parallel without coordinating on strings. The
// encoding is a flat varint layout rather than gob: recovery decodes
// hundreds of thousands of small graphs, and a reflection-free cursor
// makes the per-graph cost a handful of loads instead of a gob type
// dance. A CRC-32C trailer over the whole payload makes corruption a
// loud Open failure rather than a quietly wrong database. Branch
// multisets stay derived data, recomputed in parallel on load
// (BuildEntries), so the format has no branch section to version.
//
// Layout:
//
//	magic "gsimS1"
//	uvarint count
//	count × { uvarint id, uvarint len(name), name bytes,
//	          uvarint nv, nv × uvarint vertex label,
//	          uvarint ne, ne × (uvarint u, uvarint v, uvarint label) }
//	4-byte little-endian CRC-32C of everything above

var segMagic = [6]byte{'g', 's', 'i', 'm', 'S', '1'}

var segCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSegment writes one shard's entries as a segment. Label IDs are
// written raw; the caller guarantees the manifest dictionary it writes
// alongside covers them (it dumps the dictionary after cutting the
// entries, and the dictionary only grows).
func WriteSegment(w io.Writer, entries []*Entry) error {
	buf := make([]byte, 0, 64<<10)
	buf = append(buf, segMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		g := e.G
		buf = binary.AppendUvarint(buf, e.ID)
		buf = binary.AppendUvarint(buf, uint64(len(g.Name)))
		buf = append(buf, g.Name...)
		nv := g.NumVertices()
		buf = binary.AppendUvarint(buf, uint64(nv))
		for v := 0; v < nv; v++ {
			buf = binary.AppendUvarint(buf, uint64(g.VertexLabel(v)))
		}
		edges := g.Edges()
		buf = binary.AppendUvarint(buf, uint64(len(edges)))
		for _, ed := range edges {
			buf = binary.AppendUvarint(buf, uint64(ed.U))
			buf = binary.AppendUvarint(buf, uint64(ed.V))
			buf = binary.AppendUvarint(buf, uint64(ed.Label))
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(buf, segCastagnoli))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	_, err := w.Write(crc[:])
	return err
}

// segCursor walks a segment payload with a sticky error.
type segCursor struct {
	buf []byte
	err error
}

func (c *segCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		c.err = fmt.Errorf("db: segment: truncated varint")
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// count reads a element count bounded by the bytes remaining (every
// element costs at least one byte), so corrupt counts cannot drive
// giant allocations.
func (c *segCursor) count(what string) int {
	v := c.uvarint()
	if c.err == nil && v > uint64(len(c.buf)) {
		c.err = fmt.Errorf("db: segment: %s count %d exceeds remaining bytes", what, v)
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

func (c *segCursor) str(n int) string {
	if c.err != nil {
		return ""
	}
	if n > len(c.buf) {
		c.err = fmt.Errorf("db: segment: truncated string")
		return ""
	}
	s := string(c.buf[:n])
	c.buf = c.buf[n:]
	return s
}

// ReadSegment decodes one segment, validating the CRC trailer, every
// label ID against the manifest dictionary size nLabels, and every
// graph's structure — a segment that fails here is corrupt and recovery
// should fail loudly.
func ReadSegment(r io.Reader, nLabels int) (ids []uint64, gs []*graph.Graph, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("db: reading segment: %w", err)
	}
	if len(data) < len(segMagic)+4 || string(data[:len(segMagic)]) != string(segMagic[:]) {
		return nil, nil, fmt.Errorf("db: segment: bad magic")
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(payload, segCastagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, nil, fmt.Errorf("db: segment: CRC mismatch")
	}
	c := &segCursor{buf: payload[len(segMagic):]}
	n := c.count("graph")
	ids = make([]uint64, 0, n)
	gs = make([]*graph.Graph, 0, n)
	limit := graph.ID(nLabels)
	for gi := 0; gi < n && c.err == nil; gi++ {
		id := c.uvarint()
		name := c.str(c.count("name byte"))
		nv := c.count("vertex")
		g := graph.New(nv)
		g.Name = name
		for v := 0; v < nv; v++ {
			l := c.uvarint()
			if c.err == nil && l >= uint64(limit) {
				return nil, nil, fmt.Errorf("db: segment graph %d: vertex label %d out of dictionary", gi, l)
			}
			g.AddVertex(graph.ID(l))
		}
		ne := c.count("edge")
		for i := 0; i < ne; i++ {
			u, v, l := c.uvarint(), c.uvarint(), c.uvarint()
			if c.err != nil {
				break
			}
			if l >= uint64(limit) {
				return nil, nil, fmt.Errorf("db: segment graph %d: edge label %d out of dictionary", gi, l)
			}
			if u > math.MaxInt32 || v > math.MaxInt32 {
				return nil, nil, fmt.Errorf("db: segment graph %d: endpoint out of range", gi)
			}
			if err := g.AddEdge(int(u), int(v), graph.ID(l)); err != nil {
				return nil, nil, fmt.Errorf("db: segment graph %d: %w", gi, err)
			}
		}
		if c.err == nil {
			if err := g.Validate(); err != nil {
				return nil, nil, fmt.Errorf("db: segment graph %d: %w", gi, err)
			}
			ids = append(ids, id)
			gs = append(gs, g)
		}
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	if len(c.buf) != 0 {
		return nil, nil, fmt.Errorf("db: segment: %d trailing bytes", len(c.buf))
	}
	return ids, gs, nil
}

// BuildEntries turns decoded segment contents into store entries,
// computing and interning every graph's branch multiset with a parallel
// pass (the dominant cost of recovery after IO; BranchDict interning is
// concurrent-safe).
func BuildEntries(bdict *BranchDict, ids []uint64, gs []*graph.Graph) []*Entry {
	out := make([]*Entry, len(gs))
	parallel(len(gs), func(i int) {
		out[i] = &Entry{ID: ids[i], G: gs[i], Branches: bdict.InternMultiset(branch.MultisetOf(gs[i]))}
	})
	return out
}
