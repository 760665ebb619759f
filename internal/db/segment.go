package db

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

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
// multisets stay derived data, recomputed as each graph is decoded
// (BuildEntry), so the format has no branch section to version.
//
// Layout:
//
//	magic "gsimS1"
//	uvarint count
//	count × { uvarint id, uvarint len(name), name bytes,
//	          graph.AppendBody, labels coded as dictionary IDs:
//	          the entry's graph.Packed body }
//	4-byte little-endian CRC-32C of everything above

var segMagic = [6]byte{'g', 's', 'i', 'm', 'S', '1'}

var segCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteSegment writes one shard's entries as a segment, copying each
// entry's packed body as it is. It streams through a buffered writer and
// checksums what it flushes, so no payload is assembled in memory. Label
// IDs are written raw; the caller guarantees the manifest dictionary it
// writes alongside covers them (it dumps the dictionary after cutting the
// entries, and the dictionary only grows).
func WriteSegment(w io.Writer, entries []*Entry) error {
	// A bufio.Writer keeps its first error, which Flush reports.
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, 64<<10)
	var head [binary.MaxVarintLen64]byte
	bw.Write(segMagic[:])
	bw.Write(binary.AppendUvarint(head[:0], uint64(len(entries))))
	for _, e := range entries {
		bw.Write(binary.AppendUvarint(head[:0], e.ID))
		bw.Write(binary.AppendUvarint(head[:0], uint64(len(e.G.Name))))
		bw.WriteString(e.G.Name)
		bw.Write(e.G.Body())
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.crc)
	_, err := w.Write(crc[:])
	return err
}

// crcWriter passes writes through to w, keeping the CRC-32C of every byte
// written.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, segCastagnoli, p)
	return c.w.Write(p)
}

// ReadSegment decodes one segment into its IDs and graphs: ReadSegmentEach,
// collected.
func ReadSegment(r io.Reader, nLabels int) (ids []uint64, gs []*graph.Graph, err error) {
	if err := ReadSegmentEach(r, nLabels, func(id uint64, g *graph.Graph) error {
		ids = append(ids, id)
		gs = append(gs, g)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return ids, gs, nil
}

// ReadSegmentEach decodes one segment, validating the CRC trailer, every
// label ID against the manifest dictionary size nLabels, and every
// graph's structure — a segment that fails here is corrupt and recovery
// should fail loudly. It hands each graph to fn as it is decoded, with its
// ID; the first error fn returns stops the walk and is returned.
func ReadSegmentEach(r io.Reader, nLabels int, fn func(id uint64, g *graph.Graph) error) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("db: reading segment: %w", err)
	}
	if len(data) < len(segMagic)+4 || string(data[:len(segMagic)]) != string(segMagic[:]) {
		return fmt.Errorf("db: segment: bad magic")
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(payload, segCastagnoli) != binary.LittleEndian.Uint32(trailer) {
		return fmt.Errorf("db: segment: CRC mismatch")
	}
	c := graph.NewCursor(payload[len(segMagic):])
	n := c.Count("graph")
	dictID := func(l uint64) (graph.ID, bool) { return graph.ID(l), l < uint64(nLabels) }
	for i := 0; i < n; i++ {
		id := c.Uvarint()
		g := c.Body(c.Str(), dictID)
		if g == nil {
			return fmt.Errorf("db: segment graph %d: %w", i, c.Err())
		}
		if err := fn(id, g); err != nil {
			return err
		}
	}
	if err := c.Done(); err != nil {
		return fmt.Errorf("db: segment: %w", err)
	}
	return nil
}

// BuildEntries turns decoded segment contents into store entries,
// BuildEntry over every graph in a parallel pass (BranchDict interning is
// concurrent-safe).
func BuildEntries(bdict *BranchDict, ids []uint64, gs []*graph.Graph) []*Entry {
	out := make([]*Entry, len(gs))
	parallel(len(gs), func(i int) { out[i] = BuildEntry(bdict, ids[i], gs[i]) })
	return out
}
