package dynamic

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
	"repro/internal/xrand"
)

func mustGraph(t testing.TB) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// edgeSet is the naive model the overlay is checked against.
type edgeSet map[[2]uint32]bool

func (s edgeSet) key(u, v uint32) [2]uint32 {
	if u > v {
		u, v = v, u
	}
	return [2]uint32{u, v}
}
func (s edgeSet) add(u, v uint32) {
	if u != v {
		s[s.key(u, v)] = true
	}
}
func (s edgeSet) del(u, v uint32) { delete(s, s.key(u, v)) }

func (s edgeSet) graph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, len(s))
	for k := range s {
		edges = append(edges, graph.Edge{U: k[0], V: k[1]})
	}
	return mustGraph(t)(graph.FromEdges(n, edges, 1))
}

func TestOverlayBasics(t *testing.T) {
	base := mustGraph(t)(graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 1))
	ov := NewOverlay(base)
	if ov.Version() != 0 || ov.NumVertices() != 4 || ov.NumEdges() != 2 {
		t.Fatalf("fresh overlay: version %d n %d m %d", ov.Version(), ov.NumVertices(), ov.NumEdges())
	}

	// No-op batch: present edge added, absent edge deleted, self-loop.
	diff, err := ov.Apply(Batch{
		AddEdges: []graph.Edge{{U: 0, V: 1}, {U: 2, V: 2}},
		DelEdges: []graph.Edge{{U: 0, V: 3}},
	})
	if err != nil || !diff.Empty() {
		t.Fatalf("no-op batch: diff %+v err %v", diff, err)
	}
	if ov.Version() != 0 {
		t.Fatalf("no-op batch bumped version to %d", ov.Version())
	}

	// Real mutation: delete a base edge, add a new one, append a vertex.
	diff, err = ov.Apply(Batch{
		AddVertices: 1,
		DelEdges:    []graph.Edge{{U: 1, V: 0}}, // reversed direction must hit {0,1}
		AddEdges:    []graph.Edge{{U: 3, V: 4}, {U: 4, V: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) != 1 || len(diff.Removed) != 1 || diff.NewVertices != 1 {
		t.Fatalf("diff %+v", diff)
	}
	if ov.Version() != 1 || ov.NumVertices() != 5 || ov.NumEdges() != 2 {
		t.Fatalf("after batch: version %d n %d m %d", ov.Version(), ov.NumVertices(), ov.NumEdges())
	}
	if ov.HasEdge(0, 1) || !ov.HasEdge(3, 4) || !ov.HasEdge(1, 2) {
		t.Fatal("edge membership wrong after batch")
	}
	if ov.Degree(1) != 1 || ov.Degree(4) != 1 || ov.Degree(0) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", ov.Degree(1), ov.Degree(4), ov.Degree(0))
	}

	// Re-adding a deleted base edge must resurrect it through del, not add.
	diff, err = ov.Apply(Batch{AddEdges: []graph.Edge{{U: 0, V: 1}}})
	if err != nil || len(diff.Added) != 1 {
		t.Fatalf("resurrect: diff %+v err %v", diff, err)
	}
	if !ov.HasEdge(1, 0) {
		t.Fatal("resurrected edge missing")
	}

	snap, err := ov.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.NumVertices() != 5 || snap.NumEdges() != 3 {
		t.Fatalf("snapshot n=%d m=%d", snap.NumVertices(), snap.NumEdges())
	}

	// Vertex 1 gets a deletion and an insertion; removing the insertion
	// again must keep the deletion.
	for _, b := range []Batch{
		{DelEdges: []graph.Edge{{U: 1, V: 2}}, AddEdges: []graph.Edge{{U: 1, V: 3}}},
		{DelEdges: []graph.Edge{{U: 3, V: 1}}},
	} {
		if _, err := ov.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if ov.HasEdge(1, 2) || ov.HasEdge(2, 1) || ov.HasEdge(1, 3) || ov.Degree(1) != 1 || ov.NumEdges() != 2 {
		t.Fatalf("after delete+insert+undo: m=%d deg(1)=%d {1,2}:%v {1,3}:%v",
			ov.NumEdges(), ov.Degree(1), ov.HasEdge(1, 2), ov.HasEdge(1, 3))
	}
	if nb := ov.AppendNeighbors(nil, 1); len(nb) != 1 || nb[0] != 0 {
		t.Fatalf("neighbors of 1: %v, want [0]", nb)
	}
}

func TestOverlayRejectsBadBatches(t *testing.T) {
	base := mustGraph(t)(graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}}, 1))
	ov := NewOverlay(base)
	cases := []Batch{
		{AddVertices: -1},
		{AddEdges: []graph.Edge{{U: 0, V: 9}}},
		{DelEdges: []graph.Edge{{U: 9, V: 0}}},
		{DelVertices: []uint32{7}},
	}
	for i, b := range cases {
		if _, err := ov.Apply(b); err == nil {
			t.Errorf("case %d: bad batch accepted", i)
		}
	}
	if ov.Version() != 0 || ov.NumVertices() != 3 {
		t.Fatal("failed batch mutated the overlay")
	}
}

// TestOverlayMatchesModel drives the overlay with random batches and
// checks every snapshot against a naive edge-set model.
func TestOverlayMatchesModel(t *testing.T) {
	base := mustGraph(t)(gen.ErdosRenyiGNM(200, 600, 7, 1))
	ov := NewOverlay(base)
	model := edgeSet{}
	for _, e := range base.Edges() {
		model.add(e.U, e.V)
	}
	rng := xrand.New(99)
	n := 200
	for round := 0; round < 30; round++ {
		var b Batch
		if round%7 == 3 {
			b.AddVertices = 1 + rng.Intn(3)
		}
		if round == 20 {
			// The slot index grows inside this Apply: the new vertices
			// get edges to each other and to old ones at once.
			b.AddVertices = 4
			for i := uint32(0); i < 4; i++ {
				b.AddEdges = append(b.AddEdges,
					graph.Edge{U: uint32(n) + i, V: uint32(n) + (i+1)%4},
					graph.Edge{U: uint32(rng.Intn(n)), V: uint32(n) + i})
			}
		}
		for i := 0; i < 10; i++ {
			u := uint32(rng.Intn(n + b.AddVertices))
			v := uint32(rng.Intn(n + b.AddVertices))
			if rng.Intn(3) == 0 {
				b.DelEdges = append(b.DelEdges, graph.Edge{U: u, V: v})
			} else {
				b.AddEdges = append(b.AddEdges, graph.Edge{U: u, V: v})
			}
		}
		if round%11 == 5 {
			b.DelVertices = []uint32{uint32(rng.Intn(n))}
		}
		if _, err := ov.Apply(b); err != nil {
			t.Fatal(err)
		}
		// Replay on the model in the batch's documented order.
		n += b.AddVertices
		for _, v := range b.DelVertices {
			for k := range model {
				if k[0] == v || k[1] == v {
					delete(model, k)
				}
			}
		}
		for _, e := range b.DelEdges {
			model.del(e.U, e.V)
		}
		for _, e := range b.AddEdges {
			model.add(e.U, e.V)
		}

		snap, err := ov.Snapshot(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := model.graph(t, n)
		if snap.NumVertices() != want.NumVertices() || snap.NumEdges() != want.NumEdges() {
			t.Fatalf("round %d: snapshot n=%d m=%d, model n=%d m=%d",
				round, snap.NumVertices(), snap.NumEdges(), want.NumVertices(), want.NumEdges())
		}
		if int64(len(model)) != ov.NumEdges() {
			t.Fatalf("round %d: overlay m=%d model m=%d", round, ov.NumEdges(), len(model))
		}
		for k := range model {
			if !ov.HasEdge(k[0], k[1]) {
				t.Fatalf("round %d: model edge (%d,%d) missing from overlay", round, k[0], k[1])
			}
		}
		for v := 0; v < n; v++ {
			if ov.Degree(uint32(v)) != want.Degree(uint32(v)) {
				t.Fatalf("round %d: overlay degree of %d is %d, model %d", round, v, ov.Degree(uint32(v)), want.Degree(uint32(v)))
			}
		}
	}
}

// TestRepairLocality is the acceptance check: on kron:12, a small batch
// of conflicting edge insertions must change colors only inside the
// dirty frontier (the conflict endpoints), which itself lies within
// distance 1 of the inserted edges.
func TestRepairLocality(t *testing.T) {
	g := mustGraph(t)(gen.Kronecker(12, 16, 1, 0))
	c := NewColored(g, Options{Procs: 2, Seed: 5})
	before := c.Colors()

	// Build a batch of currently-monochromatic non-edges: guaranteed
	// conflicts on insertion.
	var batch Batch
	conflictEnds := map[uint32]bool{}
	rng := xrand.New(17)
	n := g.NumVertices()
	for len(batch.AddEdges) < 8 {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v || before[u] != before[v] || g.HasEdge(u, v) {
			continue
		}
		batch.AddEdges = append(batch.AddEdges, graph.Edge{U: u, V: v})
		conflictEnds[u], conflictEnds[v] = true, true
	}

	res, err := c.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatalf("small batch fell back to full recolor (dirty %d)", len(res.Dirty))
	}
	if res.ConflictEdges == 0 || res.Repaired == 0 {
		t.Fatalf("expected conflicts and repairs, got %d / %d", res.ConflictEdges, res.Repaired)
	}

	// Dirty frontier is exactly a subset of the inserted edges' endpoints.
	dirtySet := map[uint32]bool{}
	for _, v := range res.Dirty {
		if !conflictEnds[v] {
			t.Errorf("dirty vertex %d is not an endpoint of an inserted conflicting edge", v)
		}
		dirtySet[v] = true
	}
	// Writes stayed inside the dirty frontier.
	after := c.Colors()
	for v := range after {
		if before[v] != after[v] && !dirtySet[uint32(v)] {
			t.Errorf("vertex %d recolored outside the dirty frontier", v)
		}
	}

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckProper(snap, after); err != nil {
		t.Fatal(err)
	}
}

// TestRepairDeterminism: equal seeds and batch history must yield
// bit-identical maintained colorings at any worker count.
func TestRepairDeterminism(t *testing.T) {
	g := mustGraph(t)(gen.Kronecker(9, 8, 3, 0))
	mkBatches := func() []Batch {
		rng := xrand.New(31)
		var out []Batch
		for i := 0; i < 6; i++ {
			var b Batch
			for j := 0; j < 20; j++ {
				u := uint32(rng.Intn(g.NumVertices()))
				v := uint32(rng.Intn(g.NumVertices()))
				if j%4 == 0 {
					b.DelEdges = append(b.DelEdges, graph.Edge{U: u, V: v})
				} else {
					b.AddEdges = append(b.AddEdges, graph.Edge{U: u, V: v})
				}
			}
			out = append(out, b)
		}
		return out
	}

	var reference []uint32
	for _, p := range []int{1, 2, 8} {
		c := NewColored(g, Options{Procs: p, Seed: 42})
		for bi, b := range mkBatches() {
			if _, err := c.Apply(b); err != nil {
				t.Fatalf("p=%d batch %d: %v", p, bi, err)
			}
		}
		got := c.Colors()
		if reference == nil {
			reference = got
			continue
		}
		for v := range got {
			if got[v] != reference[v] {
				t.Fatalf("p=%d: color of vertex %d differs (%d vs %d)", p, v, got[v], reference[v])
			}
		}
	}
}

// TestRepairMaintainsProperness drives mixed batches (inserts, deletes,
// vertex adds/isolations, and one batch adding so many vertices that it
// trips the fallback recolor) and checks the maintained coloring against
// a fresh snapshot, and the maintained color count against a recount,
// after every batch.
func TestRepairMaintainsProperness(t *testing.T) {
	g := mustGraph(t)(gen.ErdosRenyiGNM(300, 1500, 11, 1))
	c := NewColored(g, Options{Procs: 2, Seed: 8})
	rng := xrand.New(1234)
	for round := 0; round < 25; round++ {
		var b Batch
		n := c.Overlay().NumVertices()
		if round%5 == 2 {
			b.AddVertices = 1 + rng.Intn(4)
		}
		if round == 13 {
			b.AddVertices = n / 2
		}
		if round%9 == 4 {
			b.DelVertices = []uint32{uint32(rng.Intn(n))}
		}
		for i := 0; i < 15; i++ {
			u := uint32(rng.Intn(n + b.AddVertices))
			v := uint32(rng.Intn(n + b.AddVertices))
			if rng.Intn(4) == 0 {
				b.DelEdges = append(b.DelEdges, graph.Edge{U: u, V: v})
			} else {
				b.AddEdges = append(b.AddEdges, graph.Edge{U: u, V: v})
			}
		}
		res, err := c.Apply(b)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckProper(snap, c.Colors()); err != nil {
			t.Fatalf("round %d (version %d): %v", round, res.Version, err)
		}
		if want := verify.NumColors(c.Colors()); res.NumColors != want || c.NumColors() != want {
			t.Fatalf("round %d: result reports %d colors, Colored %d, recount %d", round, res.NumColors, c.NumColors(), want)
		}
	}
	if c.Repairs() == 0 || c.FullRecolors() != 1 {
		t.Fatalf("%d localized repairs and %d fallbacks, want some and 1", c.Repairs(), c.FullRecolors())
	}
}

// TestFallbackRecolor forces the dirty region over the threshold and
// checks the full-recolor path.
func TestFallbackRecolor(t *testing.T) {
	g := mustGraph(t)(gen.ErdosRenyiGNM(400, 1200, 2, 1))
	c := NewColored(g, Options{Procs: 2, Seed: 9, FallbackFraction: 1e-9})
	before := c.Colors()

	// One conflicting insertion is enough to exceed a 1e-9 threshold.
	var e graph.Edge
	found := false
	for u := 0; u < len(before) && !found; u++ {
		for v := u + 1; v < len(before); v++ {
			if before[u] == before[v] && !g.HasEdge(uint32(u), uint32(v)) {
				e = graph.Edge{U: uint32(u), V: uint32(v)}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no monochromatic non-edge available")
	}
	res, err := c.Apply(Batch{AddEdges: []graph.Edge{e}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("expected fallback recolor")
	}
	if c.FullRecolors() != 1 {
		t.Fatalf("FullRecolors = %d", c.FullRecolors())
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckProper(snap, c.Colors()); err != nil {
		t.Fatal(err)
	}
}

// TestNewVerticesGetColored attaches edges to freshly added vertices in
// the same batch and checks they come out colored.
func TestNewVerticesGetColored(t *testing.T) {
	g := mustGraph(t)(gen.Grid2D(8, 8, 1))
	c := NewColored(g, Options{Procs: 2, Seed: 4})
	n := uint32(g.NumVertices())
	res, err := c.Apply(Batch{
		AddVertices: 2,
		AddEdges: []graph.Edge{
			{U: n, V: n + 1}, {U: n, V: 0}, {U: n + 1, V: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewVertices != 2 || res.Repaired < 2 {
		t.Fatalf("result %+v", res)
	}
	cols := c.Colors()
	if cols[n] == 0 || cols[n+1] == 0 || cols[n] == cols[n+1] {
		t.Fatalf("new vertices miscolored: %d %d", cols[n], cols[n+1])
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckProper(snap, cols); err != nil {
		t.Fatal(err)
	}
}

// TestDeletionsOnlyKeepColoring: deletions cannot break properness, so
// the repair must not touch anything.
func TestDeletionsOnlyKeepColoring(t *testing.T) {
	g := mustGraph(t)(gen.ErdosRenyiGNM(100, 400, 5, 1))
	c := NewColored(g, Options{Procs: 1, Seed: 1})
	before := c.Colors()
	edges := g.Edges()
	res, err := c.Apply(Batch{DelEdges: edges[:50]})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dirty) != 0 || res.Repaired != 0 || res.Rounds != 0 {
		t.Fatalf("deletions produced repair work: %+v", res)
	}
	after := c.Colors()
	for v := range after {
		if after[v] != before[v] {
			t.Fatalf("vertex %d recolored by a deletion-only batch", v)
		}
	}
	if res.Version != 1 {
		t.Fatalf("version %d after one effective batch", res.Version)
	}
}

func TestEmptyBaseGraph(t *testing.T) {
	g := mustGraph(t)(graph.FromEdges(0, nil, 1))
	c := NewColored(g, Options{Procs: 1, Seed: 1})
	res, err := c.Apply(Batch{AddVertices: 3, AddEdges: []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 2 {
		t.Fatalf("path on 3 fresh vertices used %d colors", res.NumColors)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckProper(snap, c.Colors()); err != nil {
		t.Fatal(err)
	}
}
