package ged

import (
	"fmt"

	"gsim/internal/graph"
)

// OpKind enumerates the six graph edit operations of Definition 1.
type OpKind int

const (
	// AddVertex inserts an isolated labeled vertex (AV).
	AddVertex OpKind = iota
	// DeleteVertex removes an isolated vertex (DV).
	DeleteVertex
	// RelabelVertex rewrites a vertex label (RV).
	RelabelVertex
	// AddEdge inserts a labeled edge (AE).
	AddEdge
	// DeleteEdge removes an edge (DE).
	DeleteEdge
	// RelabelEdge rewrites an edge label (RE).
	RelabelEdge
)

// String names the operation as in Definition 1.
func (k OpKind) String() string {
	switch k {
	case AddVertex:
		return "AV"
	case DeleteVertex:
		return "DV"
	case RelabelVertex:
		return "RV"
	case AddEdge:
		return "AE"
	case DeleteEdge:
		return "DE"
	case RelabelEdge:
		return "RE"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one concrete edit operation. Vertex indexes refer to the working
// graph at the moment the operation applies (scripts are replayable in
// order). For edge operations U and V name the endpoints; for vertex
// operations only U is meaningful.
type Op struct {
	Kind  OpKind
	U, V  int
	Label graph.ID // new label for AV/RV/AE/RE; ignored for deletions
}

// String renders the operation compactly, e.g. "RE(2,5)->7".
func (o Op) String() string {
	switch o.Kind {
	case AddVertex, RelabelVertex:
		return fmt.Sprintf("%v(%d)->%d", o.Kind, o.U, o.Label)
	case DeleteVertex:
		return fmt.Sprintf("DV(%d)", o.U)
	case DeleteEdge:
		return fmt.Sprintf("DE(%d,%d)", o.U, o.V)
	default:
		return fmt.Sprintf("%v(%d,%d)->%d", o.Kind, o.U, o.V, o.Label)
	}
}

// Script turns a complete vertex assignment (the Mapping of Result, or any
// φ with φ[u] = image of u or -1) into an explicit edit-operation sequence
// transforming g1 into a graph structurally equal to g2 up to the vertex
// renumbering implied by the assignment. The script length equals
// AssignmentCost(g1, g2, phi), so the script extracted from an optimal A*
// mapping is a minimum-length GEO sequence — the interpretability property
// the paper credits GED with (Example 1).
//
// Operation order follows the feasibility constraints of Definition 1:
// edge deletions first (freeing vertices), then vertex deletions, then
// relabels, then vertex insertions, finally edge insertions.
func Script(g1, g2 *graph.Graph, phi []int) []Op {
	n1, n2 := g1.NumVertices(), g2.NumVertices()
	if len(phi) != n1 {
		panic(fmt.Sprintf("ged: assignment length %d != |V1| %d", len(phi), n1))
	}
	var dels, vdels, rels, vins, eins []Op

	matched := make([]int, n2) // g2 vertex -> g1 vertex + 1
	for u, v := range phi {
		if v >= 0 {
			matched[v] = u + 1
		}
	}

	// Working-graph vertex numbering: g1 vertices keep their indexes
	// (deleted ones leave holes conceptually; we renumber at the end
	// when inserting, since Apply works on an explicit working copy).
	// Edge phase 1: g1 edges that are deleted or relabeled.
	for _, e := range g1.Edges() {
		pu, pv := phi[e.U], phi[e.V]
		if pu < 0 || pv < 0 {
			dels = append(dels, Op{Kind: DeleteEdge, U: int(e.U), V: int(e.V)})
			continue
		}
		l2, has2 := g2.EdgeLabel(pu, pv)
		switch {
		case !has2:
			dels = append(dels, Op{Kind: DeleteEdge, U: int(e.U), V: int(e.V)})
		case l2 != e.Label:
			rels = append(rels, Op{Kind: RelabelEdge, U: int(e.U), V: int(e.V), Label: l2})
		}
	}
	// Vertex deletions (now isolated).
	for u, v := range phi {
		if v < 0 {
			vdels = append(vdels, Op{Kind: DeleteVertex, U: u})
		}
	}
	// Vertex relabels for matched pairs.
	for u, v := range phi {
		if v >= 0 && g1.VertexLabel(u) != g2.VertexLabel(v) {
			rels = append(rels, Op{Kind: RelabelVertex, U: u, Label: g2.VertexLabel(v)})
		}
	}
	// Vertex insertions for unmatched g2 vertices.
	for v := 0; v < n2; v++ {
		if matched[v] == 0 {
			vins = append(vins, Op{Kind: AddVertex, U: v, Label: g2.VertexLabel(v)})
		}
	}
	// Edge insertions: g2 edges without a surviving preimage.
	for _, e := range g2.Edges() {
		mu, mv := matched[e.U], matched[e.V]
		if mu != 0 && mv != 0 {
			if _, has1 := g1.EdgeLabel(mu-1, mv-1); has1 {
				continue // matched, handled in phase 1
			}
		}
		eins = append(eins, Op{Kind: AddEdge, U: int(e.U), V: int(e.V), Label: e.Label})
	}

	script := make([]Op, 0, len(dels)+len(vdels)+len(rels)+len(vins)+len(eins))
	script = append(script, dels...)
	script = append(script, vdels...)
	script = append(script, rels...)
	script = append(script, vins...)
	script = append(script, eins...)
	return script
}

// Apply replays a Script produced for (g1, g2, phi) and returns the
// resulting graph, which is structurally equal to g2 (vertex i of the
// result is vertex i of g2). It is the executable witness that the script
// indeed transforms g1 into g2; tests pair it with graph.Equal.
//
// Internally the working graph is rebuilt in g2's numbering: matched g1
// vertices take their φ-image slot, deletions drop out, insertions fill
// the unmatched slots. Operations referencing g1 indexes are translated
// through φ.
func Apply(g1, g2 *graph.Graph, phi []int, script []Op) (*graph.Graph, error) {
	n2 := g2.NumVertices()

	// Seed: g2-slot graph with the labels/edges carried over from g1.
	slotLabel := make([]graph.ID, n2) // ε for not-yet-inserted slots
	present := make([]bool, n2)
	for u, v := range phi {
		if v >= 0 {
			slotLabel[v] = g1.VertexLabel(u)
			present[v] = true
		}
	}
	// Insertions get placeholders until their AV op runs; track state.
	inserted := make([]bool, n2)
	// Carry over g1 edges between matched vertices.
	var carried []graph.Edge
	for _, e := range g1.Edges() {
		pu, pv := phi[e.U], phi[e.V]
		if pu >= 0 && pv >= 0 {
			carried = append(carried, graph.Edge{U: int32(pu), V: int32(pv), Label: e.Label})
		}
	}
	out, err := graph.FromEdges(g1.Name+"=>"+g2.Name, slotLabel, carried)
	if err != nil {
		return nil, err
	}

	toSlot := func(u int) (int, error) {
		if u < 0 || u >= len(phi) || phi[u] < 0 {
			return -1, fmt.Errorf("ged: op references unmatched g1 vertex %d", u)
		}
		return phi[u], nil
	}
	for _, op := range script {
		switch op.Kind {
		case DeleteEdge:
			su, err := toSlot(op.U)
			if err != nil {
				// Deleting an edge on a to-be-deleted vertex: such ops act
				// in g1 space on vertices with no slot; they simply do not
				// reach the g2-slot graph (the seed never carried them).
				continue
			}
			sv, err := toSlot(op.V)
			if err != nil {
				continue
			}
			if err := out.RemoveEdge(su, sv); err != nil {
				return nil, err
			}
		case DeleteVertex:
			// The vertex had no slot; nothing to do in g2 numbering.
		case RelabelVertex:
			su, err := toSlot(op.U)
			if err != nil {
				return nil, err
			}
			out.RelabelVertex(su, op.Label)
		case RelabelEdge:
			su, err := toSlot(op.U)
			if err != nil {
				return nil, err
			}
			sv, err := toSlot(op.V)
			if err != nil {
				return nil, err
			}
			if err := out.RelabelEdge(su, sv, op.Label); err != nil {
				return nil, err
			}
		case AddVertex:
			if op.U < 0 || op.U >= n2 || present[op.U] || inserted[op.U] {
				return nil, fmt.Errorf("ged: AV into occupied slot %d", op.U)
			}
			out.RelabelVertex(op.U, op.Label)
			inserted[op.U] = true
		case AddEdge:
			if err := out.AddEdge(op.U, op.V, op.Label); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("ged: unknown op %v", op.Kind)
		}
	}
	return out, nil
}
