// Package dynamic makes the static CSR world of this reproduction
// mutable: an Overlay layers batched edge/vertex insertions and
// deletions over an immutable graph.Graph, and a Colored maintains a
// proper coloring across those batches by incremental repair — the
// conflict frontier a batch creates is detected in parallel and
// recolored with a localized Jones–Plassmann pass over JP-ADG-style
// priorities that touches only the dirty vertices and reads only their
// distance-1 neighborhoods (see repair.go). When the dirty region grows
// past a threshold the repair falls back to a full JP-ADG recolor, so
// the incremental path never does more work than recomputing from
// scratch.
//
// The paper's guarantees (Besta et al., SC 2020) are stated for static
// graphs; the repair primitive here follows the iterative-recoloring
// line (Sarıyüce et al., arXiv:1407.6745) and the speculate-and-repair
// approach (Rokos et al., arXiv:1505.04086): recolor only what an
// update batch actually breaks. Because edges can only *conflict* when
// inserted (a proper coloring stays proper under deletion), the
// frontier is exactly the monochromatic inserted edges plus any
// vertices created by the batch.
package dynamic

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Batch is one atomic group of mutations. Application order inside a
// batch is fixed: vertices are added first, then DelVertices expands to
// the deletion of all incident edges, then DelEdges, then AddEdges —
// so a batch may delete an edge and re-add it, or attach edges to the
// vertices it just created. Self-loops are dropped (the graphs here are
// simple); adding a present edge or deleting an absent one is a no-op.
type Batch struct {
	// AddVertices appends this many isolated vertices with ids
	// n, n+1, … (n = vertex count before the batch).
	AddVertices int
	// DelVertices isolates the listed vertices by deleting all their
	// incident edges. Ids stay valid — the graphs never renumber.
	DelVertices []uint32
	// DelEdges removes undirected edges.
	DelEdges []graph.Edge
	// AddEdges inserts undirected edges.
	AddEdges []graph.Edge
}

// Empty reports whether the batch carries no mutations at all.
func (b *Batch) Empty() bool {
	return b.AddVertices == 0 && len(b.DelVertices) == 0 &&
		len(b.DelEdges) == 0 && len(b.AddEdges) == 0
}

// Diff reports what a batch actually changed: edges that materialized
// or vanished (no-ops and duplicates excluded, each undirected edge
// once with U < V) and the number of vertices appended.
type Diff struct {
	Added       []graph.Edge
	Removed     []graph.Edge
	NewVertices int
}

// Empty reports whether the batch changed nothing.
func (d *Diff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && d.NewVertices == 0
}

// Overlay is a mutable simple undirected graph: an immutable CSR base
// plus per-vertex sorted insertion/deletion lists. Reads merge the two
// on the fly; Snapshot materializes a fresh immutable CSR on demand
// (memoized per version). The zero-cost common case is preserved: an
// overlay that was never mutated reads straight through to the base and
// snapshots to it without copying.
//
// The lists live in one compact slice of entries, deltas, reached
// through a dense vertex index, slot: slot[v] is 1 + the index of v's
// entry, or 0 for a vertex whose lists are both empty. Finding a
// vertex's lists is one array read with no hashing, and the index costs
// 4 bytes per vertex where a dense pair of lists per vertex would cost
// 48. An entry whose lists empty out is released for reuse, so deltas
// holds about one entry per vertex with a live delta. An edit is a
// binary search plus an insert or delete in one vertex's list, so a
// batch costs O(batch · (log deg + list length)) with no O(n) term;
// only AddVertices grows slot, by the vertices it appends.
//
// Overlay is not safe for concurrent use; callers (the service layer's
// GraphEntry) serialize access.
type Overlay struct {
	base  *graph.Graph
	baseN int
	n     int
	m     int64
	// slot has one entry per vertex, deltas one per vertex with a delta
	// (plus released ones). Both directions of every overlay edge are
	// stored, mirroring CSR symmetry.
	slot   []int32
	deltas []delta
	free   []int32 // slot values of released entries, for reuse

	version uint64
	snap    *graph.Graph
	snapVer uint64
}

// delta holds one vertex's sorted inserted and deleted neighbors.
type delta struct{ add, del []uint32 }

// NewOverlay wraps base (which must stay immutable) at version 0.
func NewOverlay(base *graph.Graph) *Overlay {
	return &Overlay{
		base:  base,
		baseN: base.NumVertices(),
		n:     base.NumVertices(),
		m:     base.NumEdges(),
		slot:  make([]int32, base.NumVertices()),
		snap:  base,
	}
}

// NumVertices returns the current vertex count n.
func (o *Overlay) NumVertices() int { return o.n }

// NumEdges returns the current undirected edge count m.
func (o *Overlay) NumEdges() int64 { return o.m }

// Version returns the mutation version: 0 for a fresh overlay,
// incremented by every batch that changes anything. It is the cache
// key component that makes stale colorings unservable downstream.
func (o *Overlay) Version() uint64 { return o.version }

// at returns v's delta entry, or nil for a vertex without one (or out
// of range). The pointer is valid until the next entry call.
func (o *Overlay) at(v uint32) *delta {
	if int(v) < len(o.slot) {
		if s := o.slot[v]; s != 0 {
			return &o.deltas[s-1]
		}
	}
	return nil
}

// entry is at, giving v an entry on first use: a released one, whose
// lists keep their capacity, before a new one.
func (o *Overlay) entry(v uint32) *delta {
	if o.slot[v] == 0 {
		if k := len(o.free); k > 0 {
			o.slot[v], o.free = o.free[k-1], o.free[:k-1]
		} else {
			o.deltas = append(o.deltas, delta{})
			o.slot[v] = int32(len(o.deltas))
		}
	}
	return &o.deltas[o.slot[v]-1]
}

// release frees v's entry once both of its lists are empty.
func (o *Overlay) release(v uint32) {
	if d := o.at(v); len(d.add) == 0 && len(d.del) == 0 {
		o.free = append(o.free, o.slot[v])
		o.slot[v] = 0
	}
}

// lists returns v's inserted and deleted neighbors.
func (o *Overlay) lists(v uint32) (add, del []uint32) {
	if d := o.at(v); d != nil {
		return d.add, d.del
	}
	return nil, nil
}

// Degree returns the merged degree of v.
func (o *Overlay) Degree(v uint32) int {
	add, del := o.lists(v)
	d := len(add)
	if int(v) < o.baseN {
		d += o.base.Degree(v) - len(del)
	}
	return d
}

// HasEdge reports whether {u, v} is currently an edge.
func (o *Overlay) HasEdge(u, v uint32) bool {
	add, del := o.lists(u)
	if containsSorted(add, v) {
		return true
	}
	return o.baseHasEdge(u, v) && !containsSorted(del, v)
}

// AppendNeighbors appends the merged sorted neighbor list of v to buf
// and returns it. The merge walks the base list (skipping deletions)
// and the insertion list in lockstep, so the output is sorted and
// duplicate-free like a CSR row.
func (o *Overlay) AppendNeighbors(buf []uint32, v uint32) []uint32 {
	add, del := o.lists(v)
	var base []uint32
	if int(v) < o.baseN {
		base = o.base.Neighbors(v)
	}
	di, ai := 0, 0
	for _, u := range base {
		for di < len(del) && del[di] < u {
			di++
		}
		if di < len(del) && del[di] == u {
			continue
		}
		for ai < len(add) && add[ai] < u {
			buf = append(buf, add[ai])
			ai++
		}
		buf = append(buf, u)
	}
	return append(buf, add[ai:]...)
}

// Apply validates and applies a batch atomically, returning the diff of
// what actually changed. On error nothing is mutated. The version is
// bumped only when the diff is non-empty, so a pure no-op batch does
// not invalidate downstream caches.
func (o *Overlay) Apply(b Batch) (*Diff, error) {
	if b.AddVertices < 0 {
		return nil, fmt.Errorf("dynamic: negative AddVertices %d", b.AddVertices)
	}
	n := o.n + b.AddVertices
	for _, v := range b.DelVertices {
		if int(v) >= n {
			return nil, fmt.Errorf("dynamic: DelVertices id %d out of range n=%d", v, n)
		}
	}
	for _, e := range b.DelEdges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("dynamic: DelEdges (%d,%d) out of range n=%d", e.U, e.V, n)
		}
	}
	for _, e := range b.AddEdges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("dynamic: AddEdges (%d,%d) out of range n=%d", e.U, e.V, n)
		}
	}

	diff := &Diff{
		Added:       make([]graph.Edge, 0, len(b.AddEdges)),
		Removed:     make([]graph.Edge, 0, len(b.DelEdges)),
		NewVertices: b.AddVertices,
	}
	o.n = n
	o.slot = append(o.slot, make([]int32, b.AddVertices)...)
	// DelVertices expands to the deletion of every incident edge, using
	// the merged adjacency as of this point in the batch.
	var scratch []uint32
	for _, v := range b.DelVertices {
		scratch = o.AppendNeighbors(scratch[:0], v)
		for _, u := range scratch {
			if o.deleteEdge(v, u) {
				diff.Removed = append(diff.Removed, canonical(v, u))
			}
		}
	}
	for _, e := range b.DelEdges {
		if e.U != e.V && o.deleteEdge(e.U, e.V) {
			diff.Removed = append(diff.Removed, canonical(e.U, e.V))
		}
	}
	for _, e := range b.AddEdges {
		if e.U != e.V && o.insertEdge(e.U, e.V) {
			diff.Added = append(diff.Added, canonical(e.U, e.V))
		}
	}
	if !diff.Empty() {
		o.version++
	}
	return diff, nil
}

// insertEdge makes {u, v} present; reports whether it was absent.
func (o *Overlay) insertEdge(u, v uint32) bool {
	if o.baseHasEdge(u, v) {
		// Present in base: live unless deleted; re-adding undeletes.
		if d := o.at(u); d == nil || !removeSorted(&d.del, v) {
			return false
		}
		removeSorted(&o.at(v).del, u)
		o.release(u)
		o.release(v)
	} else if insertSorted(&o.entry(u).add, v) {
		insertSorted(&o.entry(v).add, u)
	} else {
		return false
	}
	o.m++
	return true
}

// deleteEdge makes {u, v} absent; reports whether it was present.
func (o *Overlay) deleteEdge(u, v uint32) bool {
	if d := o.at(u); d != nil && removeSorted(&d.add, v) {
		removeSorted(&o.at(v).add, u)
		o.release(u)
		o.release(v)
	} else if o.baseHasEdge(u, v) && insertSorted(&o.entry(u).del, v) {
		insertSorted(&o.entry(v).del, u)
	} else {
		return false
	}
	o.m--
	return true
}

func (o *Overlay) baseHasEdge(u, v uint32) bool {
	return int(u) < o.baseN && int(v) < o.baseN && o.base.HasEdge(u, v)
}

// Snapshot materializes the current graph as an immutable CSR, memoized
// per version. The result is safe to share: it is either the untouched
// base or a freshly built graph no later mutation can reach.
func (o *Overlay) Snapshot(p int) (*graph.Graph, error) {
	if o.snap != nil && o.snapVer == o.version {
		return o.snap, nil
	}
	edges := make([]graph.Edge, 0, o.m)
	var buf []uint32
	for v := 0; v < o.n; v++ {
		buf = o.AppendNeighbors(buf[:0], uint32(v))
		for _, u := range buf {
			if uint32(v) < u {
				edges = append(edges, graph.Edge{U: uint32(v), V: u})
			}
		}
	}
	g, err := graph.FromEdges(o.n, edges, p)
	if err != nil {
		return nil, err
	}
	o.snap, o.snapVer = g, o.version
	return g, nil
}

func canonical(u, v uint32) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}

func containsSorted(s []uint32, v uint32) bool {
	_, found := slices.BinarySearch(s, v)
	return found
}

// insertSorted adds v to the sorted list *s; reports whether it was new.
func insertSorted(s *[]uint32, v uint32) bool {
	i, found := slices.BinarySearch(*s, v)
	if found {
		return false
	}
	*s = slices.Insert(*s, i, v)
	return true
}

// removeSorted removes v from the sorted list *s; reports whether it
// was present.
func removeSorted(s *[]uint32, v uint32) bool {
	i, found := slices.BinarySearch(*s, v)
	if !found {
		return false
	}
	*s = slices.Delete(*s, i, i+1)
	return true
}
