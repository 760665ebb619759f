package db

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

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
//	          graph.AppendBody, labels coded as dictionary IDs }
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
		buf = binary.AppendUvarint(buf, e.ID)
		buf = graph.AppendString(buf, e.G.Name)
		buf = graph.AppendBody(buf, e.G, func(l graph.ID) uint64 { return uint64(l) })
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(buf, segCastagnoli))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	_, err := w.Write(crc[:])
	return err
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
	c := graph.NewCursor(payload[len(segMagic):])
	n := c.Count("graph")
	ids = make([]uint64, n)
	gs = make([]*graph.Graph, n)
	dictID := func(l uint64) (graph.ID, bool) { return graph.ID(l), l < uint64(nLabels) }
	for i := range gs {
		ids[i] = c.Uvarint()
		if gs[i] = c.Body(c.Str(), dictID); gs[i] == nil {
			return nil, nil, fmt.Errorf("db: segment graph %d: %w", i, c.Err())
		}
	}
	if err := c.Done(); err != nil {
		return nil, nil, fmt.Errorf("db: segment: %w", err)
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
		out[i] = NewEntry(ids[i], gs[i], bdict.InternMultiset(branch.MultisetOf(gs[i])))
	})
	return out
}
