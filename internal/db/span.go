package db

import (
	"encoding/binary"
	"slices"

	"gsim/internal/graph"
)

// Label spans. Every Entry carries its graph's label span, the form the
// prefilter's size and label tiers read (internal/index):
//
//	span    = uvarint(|V|) uvarint(|E|) section(vertex labels) section(edge labels)
//	section = one token per (value, count) run of the sorted label
//	          multiset, the running previous value reset to zero at the
//	          section start
//	token   = uvarint(delta<<1 | runFlag)
//	delta   = value − prev, in uint32 arithmetic (negative ephemeral IDs
//	          round-trip through the wraparound)
//	runFlag = 1 ⇒ followed by uvarint(count − 2)
//
// Duplicate-heavy label multisets (the common case: few distinct labels
// over many vertices) cost ~2 bytes per distinct run instead of 4 bytes
// per occurrence, and the label distance walks runs, not occurrences.

// spanScratch is how many label occurrences labelSpan sorts, and twice
// that how many span bytes it writes, on the stack: the returned string is
// then its only allocation.
const spanScratch = 256

// labelSpan encodes g's label span.
func labelSpan(g *graph.Graph) string {
	var scratch [spanScratch]graph.ID
	var buf [2 * spanScratch]byte
	nv, ne := g.NumVertices(), g.NumEdges()
	labels := scratch[:0]
	if nv+ne > len(scratch) {
		labels = make([]graph.ID, 0, nv+ne)
	}
	for v := 0; v < nv; v++ {
		labels = append(labels, g.VertexLabel(v))
	}
	for u := 0; u < nv; u++ {
		for _, h := range g.Neighbors(u) {
			if int(h.To) > u {
				labels = append(labels, h.Label)
			}
		}
	}
	vl, el := labels[:nv], labels[nv:]
	slices.Sort(vl)
	slices.Sort(el)
	return string(appendSpan(buf[:0], vl, el))
}

// appendSpan encodes the span of sorted vertex- and edge-label multisets
// onto dst.
func appendSpan(dst []byte, vl, el []graph.ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vl)))
	dst = binary.AppendUvarint(dst, uint64(len(el)))
	return appendSection(appendSection(dst, vl), el)
}

// appendSection encodes one sorted label multiset onto dst.
func appendSection(dst []byte, labels []graph.ID) []byte {
	prev := uint32(0)
	for i := 0; i < len(labels); {
		v := uint32(labels[i])
		j := i + 1
		for j < len(labels) && labels[j] == labels[i] {
			j++
		}
		tok := uint64(v-prev) << 1
		if j-i >= 2 {
			tok |= 1
		}
		dst = binary.AppendUvarint(dst, tok)
		if j-i >= 2 {
			dst = binary.AppendUvarint(dst, uint64(j-i-2))
		}
		prev = v
		i = j
	}
	return dst
}

// uvarint decodes the uvarint at span[p:] and returns it with the offset
// past it. Spans are only ever written by appendSpan, so it does not
// check for truncation or overflow.
func uvarint(span string, p int) (uint64, int) {
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := span[p]
		p++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, p
		}
	}
}

// SpanSizes decodes a span's header: |V|, |E| and the offset of the
// vertex section.
func SpanSizes(span string) (nv, ne, off int) {
	v, p := uvarint(span, 0)
	e, p := uvarint(span, p)
	return int(v), int(e), p
}

// SpanRuns calls fn(label, n) for every (value, count) run of the span
// section at off, which holds count label occurrences, in ascending label
// order, and returns the offset past the section.
func SpanRuns(span string, off, count int, fn func(l graph.ID, n int)) int {
	prev := uint32(0)
	for count > 0 {
		tok, p := uvarint(span, off)
		off = p
		run := 1
		if tok&1 != 0 {
			r, p := uvarint(span, off)
			off = p
			run = int(r) + 2
		}
		prev += uint32(tok >> 1)
		fn(graph.ID(prev), run)
		count -= run
	}
	return off
}

// SpanDistance merges the span section at off, which holds count label
// occurrences, against the sorted multiset q. It returns their multiset
// distance, MultisetDistance over the decoded section, and the offset
// past the section.
func SpanDistance(q []graph.ID, span string, off, count int) (int, int) {
	p := off
	prev := uint32(0)
	common, qi := 0, 0
	for remaining := count; remaining > 0; {
		tok, n := uvarint(span, p)
		p = n
		run := 1
		if tok&1 != 0 {
			r, n := uvarint(span, p)
			p = n
			run = int(r) + 2
		}
		prev += uint32(tok >> 1)
		remaining -= run
		val := graph.ID(prev)
		for qi < len(q) && q[qi] < val {
			qi++
		}
		if qi < len(q) && q[qi] == val {
			j := qi
			for j < len(q) && q[j] == val {
				j++
			}
			common += min(j-qi, run)
			qi = j
		}
	}
	return max(len(q), count) - common, p
}

// MultisetDistance is the distance between two sorted label multisets:
// the larger size minus their overlap. It is the plain definition the
// prefilter's oracle (index.Summary.LowerBound) computes the label bound
// with, and SpanDistance is tested against.
func MultisetDistance(a, b []graph.ID) int {
	i, j, common := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			common++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return max(len(a), len(b)) - common
}
