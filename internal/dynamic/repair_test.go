package dynamic

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jp"
	"repro/internal/order"
	"repro/internal/par"
	"repro/internal/xrand"
)

// repairColorsReference is the map-indexed RepairColors the hash-free
// engine replaced, kept verbatim as the oracle its output is pinned to:
// it looks every arc of every dirty vertex up in a map[uint32]int32 and
// keeps each merged neighborhood for the JP rounds.
func repairColorsReference(src Source, colors []uint32, dirty []uint32, opts Options, salt uint64) (repaired, rounds int) {
	opts = opts.withDefaults()
	p := opts.Procs
	nd := len(dirty)
	idx := make(map[uint32]int32, nd)
	for i, v := range dirty {
		idx[v] = int32(i)
	}

	adj := make([][]uint32, nd)
	var localEdges []graph.Edge
	maxDeg := 0
	for i, v := range dirty {
		adj[i] = src.AppendNeighbors(nil, v)
		if len(adj[i]) > maxDeg {
			maxDeg = len(adj[i])
		}
		for _, u := range adj[i] {
			if j, ok := idx[u]; ok && int32(i) < j {
				localEdges = append(localEdges, graph.Edge{U: uint32(i), V: uint32(j)})
			}
		}
	}
	sub, err := graph.FromEdges(nd, localEdges, p)
	if err != nil {
		panic(fmt.Sprintf("dynamic: induced subgraph: %v", err))
	}
	ord := order.ADG(sub, order.ADGOptions{
		Epsilon: opts.Epsilon, Procs: p, Seed: opts.Seed + salt, Sorted: true,
	})
	keys := ord.Keys
	counts := order.PredCounts(sub, keys, p)
	frontier := par.Pack(p, nd, func(i int) bool { return counts[i] == 0 })

	newCol := make([]uint32, nd)
	type workerState struct {
		stamp []uint64
		epoch uint64
		next  []uint32
	}
	states := make([]*workerState, p)
	for w := range states {
		states[w] = &workerState{stamp: make([]uint64, maxDeg+2)}
	}
	nextCounts := make([]int32, p)
	nextOffs := make([]int64, p+1)
	for len(frontier) > 0 {
		rounds++
		fr := frontier
		par.ForWorkers(p, len(fr), func(w, lo, hi int) {
			st := states[w]
			for fi := lo; fi < hi; fi++ {
				i := fr[fi]
				ns := adj[i]
				deg := len(ns)
				st.epoch++
				for _, u := range ns {
					var cu uint32
					if j, ok := idx[u]; ok {
						cu = newCol[j]
					} else {
						cu = colors[u]
					}
					if cu != 0 && int(cu) <= deg+1 {
						st.stamp[cu] = st.epoch
					}
				}
				nc := uint32(1)
				for st.stamp[nc] == st.epoch {
					nc++
				}
				newCol[i] = nc
				ki := keys[i]
				for _, u := range ns {
					if j, ok := idx[u]; ok && keys[j] < ki {
						if par.Join(&counts[j]) {
							st.next = append(st.next, uint32(j))
						}
					}
				}
			}
		})
		for w, st := range states {
			nextCounts[w] = int32(len(st.next))
		}
		total := par.PrefixSumInt32(1, nextCounts, nextOffs)
		nf := make([]uint32, total)
		for w, st := range states {
			copy(nf[nextOffs[w]:nextOffs[w+1]], st.next)
			st.next = st.next[:0]
		}
		frontier = nf
	}

	for i, v := range dirty {
		if colors[v] != newCol[i] {
			colors[v] = newCol[i]
			repaired++
		}
	}
	return repaired, rounds
}

// jpADGColors is the proper JP-ADG coloring the repair fixtures start
// from.
func jpADGColors(g *graph.Graph, seed uint64) []uint32 {
	ord := order.ADG(g, order.ADGOptions{Epsilon: 0.01, Procs: 2, Seed: seed, Sorted: true})
	return jp.Color(g, ord, 2).Colors
}

// topDegree returns the k highest-degree vertices, highest first (ties
// by id): the unsorted dirty order of a conflict set gathered chunk by
// chunk.
func topDegree(g *graph.Graph, k int) []uint32 {
	vs := make([]uint32, g.NumVertices())
	for v := range vs {
		vs[v] = uint32(v)
	}
	sort.SliceStable(vs, func(a, b int) bool { return g.Degree(vs[a]) > g.Degree(vs[b]) })
	return vs[:k]
}

// csrRepairCase is the SPEC-ADG shape: a CSR graph whose coloring has a
// conflict set colored one shared color next to still-uncolored fixed
// vertices (the later chunks of the sweep), handed over in an arbitrary
// order.
func csrRepairCase(g *graph.Graph, seed uint64) ([]uint32, []uint32) {
	n := g.NumVertices()
	colors := jpADGColors(g, seed)
	rng := xrand.New(seed)
	perm := rng.Perm(n, nil)
	dirty := append([]uint32(nil), perm[:n/8]...)
	dirty = append(dirty, topDegree(g, 16)...)
	dirty = dedupKeepOrder(dirty)
	for _, v := range dirty {
		colors[v] = 1
	}
	for _, v := range perm[n/8 : n/8+n/10] {
		colors[v] = 0
	}
	return colors, dirty
}

// dedupKeepOrder drops repeated ids, keeping first occurrences in order.
func dedupKeepOrder(s []uint32) []uint32 {
	seen := map[uint32]bool{}
	out := s[:0]
	for _, v := range s {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// overlayRepairCase is the mutation shape: an Overlay after one batch
// of adds random edge insertions, dels random deletions and newVerts new
// vertices, with the dirty set Colored.Apply derives from it
// (monochromatic inserted edges' endpoints plus the new, uncolored
// vertices), sorted.
func overlayRepairCase(t testing.TB, g *graph.Graph, seed uint64, adds, dels, newVerts int) (*Overlay, []uint32, []uint32) {
	ov := NewOverlay(g)
	colors := jpADGColors(g, seed)
	n := g.NumVertices()
	rng := xrand.New(seed ^ 0x5eed)
	b := Batch{AddVertices: newVerts}
	for len(b.AddEdges) < adds {
		u, v := uint32(rng.Intn(n+newVerts)), uint32(rng.Intn(n+newVerts))
		if u != v && (int(max(u, v)) >= n || !g.HasEdge(u, v)) {
			b.AddEdges = append(b.AddEdges, graph.Edge{U: u, V: v})
		}
	}
	for i := 0; i < dels; i++ {
		v := uint32(rng.Intn(n))
		if nb := g.Neighbors(v); len(nb) > 0 {
			b.DelEdges = append(b.DelEdges, graph.Edge{U: v, V: nb[rng.Intn(len(nb))]})
		}
	}
	diff, err := ov.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	colors = append(colors, make([]uint32, diff.NewVertices)...)
	var dirty []uint32
	for _, e := range diff.Added {
		if colors[e.U] != 0 && colors[e.U] == colors[e.V] {
			dirty = append(dirty, e.U, e.V)
		}
	}
	for v := n; v < ov.NumVertices(); v++ {
		dirty = append(dirty, uint32(v))
	}
	return ov, colors, dedupSorted(dirty)
}

// TestRepairColorsMatchesReference pins the hash-free repair to the
// map-indexed implementation it replaced: identical colors, repaired
// count and rounds over kron, BA, ER and grid graphs, CSR and Overlay
// sources, dirty sets in chunk (unsorted) and sorted order, p ∈ {1,2,8}.
func TestRepairColorsMatchesReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"kron", mustGraph(t)(gen.Kronecker(11, 16, 1, 0))},
		{"ba", mustGraph(t)(gen.BarabasiAlbert(2000, 6, 3, 0))},
		{"er", mustGraph(t)(gen.ErdosRenyiGNM(2000, 12000, 5, 0))},
		{"grid", mustGraph(t)(gen.Grid2D(40, 50, 0))},
	}
	check := func(t *testing.T, src Source, colors, dirty []uint32, p int, salt uint64) {
		t.Helper()
		opts := Options{Procs: p, Seed: 3}
		want := append([]uint32(nil), colors...)
		wantRep, wantRounds := repairColorsReference(src, want, dirty, opts, salt)
		got := append([]uint32(nil), colors...)
		gotRep, gotRounds := RepairColors(src, got, dirty, opts, salt)
		if gotRep != wantRep || gotRounds != wantRounds {
			t.Fatalf("repaired/rounds = %d/%d, reference %d/%d", gotRep, gotRounds, wantRep, wantRounds)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("colors differ from the reference")
		}
		if wantRep == 0 || wantRounds == 0 {
			t.Fatalf("degenerate fixture: repaired %d rounds %d", wantRep, wantRounds)
		}
	}
	for _, gc := range graphs {
		for _, p := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/csr/p=%d", gc.name, p), func(t *testing.T) {
				colors, dirty := csrRepairCase(gc.g, 7)
				check(t, gc.g, colors, dirty, p, 11)
				sorted := append([]uint32(nil), dirty...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				check(t, gc.g, colors, sorted, p, 11)
			})
			t.Run(fmt.Sprintf("%s/overlay/p=%d", gc.name, p), func(t *testing.T) {
				ov, colors, dirty := overlayRepairCase(t, gc.g, 9, 400, 100, 3)
				check(t, ov, colors, dirty, p, ov.Version())
				shuffled := append([]uint32(nil), dirty...)
				rng := xrand.New(13)
				for i := len(shuffled) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				}
				check(t, ov, colors, shuffled, p, ov.Version())
			})
		}
	}
}

// TestRepairColorsNoPerCallOrderN: once the pooled slot index is warm, a
// repair of one dirty vertex allocates O(deg) bytes, far below the 4·n
// bytes an index re-allocated on every call would cost. Each call is
// measured alone with GC off, so the pool is not emptied mid-run, and
// the least is taken: a goroutine moved to another P, or the race
// detector's random Pool drops, can cost a single call a fresh index.
func TestRepairColorsNoPerCallOrderN(t *testing.T) {
	g := mustGraph(t)(gen.Kronecker(16, 16, 1, 0))
	n := g.NumVertices()
	colors := make([]uint32, n)
	var dirty []uint32
	for v := range colors {
		colors[v] = uint32(v%7) + 1
		if d := g.Degree(uint32(v)); dirty == nil && d >= 8 && d <= 64 {
			dirty = []uint32{uint32(v)} // a vertex of typical degree
		}
	}
	opts := Options{Procs: 1, Seed: 1}
	RepairColors(g, colors, dirty, opts, 1) // warm-up: fills the pool

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 16; i++ {
		runtime.ReadMemStats(&before)
		RepairColors(g, colors, dirty, opts, uint64(i)+2)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(n / 2); least > limit {
		t.Fatalf("%d bytes allocated per 1-vertex repair (deg %d), want <= %d (4·n = %d)",
			least, g.Degree(dirty[0]), limit, 4*n)
	}
}

// BenchmarkRepairColors times the localized repair, with one worker, in
// the two shapes its callers give it: SPEC-ADG's (the 64 highest-degree
// vertices of a kron:15 CSR graph reset to one shared color over a
// JP-ADG coloring) and the mutation path's (the dirty set of a 64-edge
// batch on a kron:14 Overlay).
func BenchmarkRepairColors(b *testing.B) {
	b.Run("spec-kron15-top64", func(b *testing.B) {
		g := mustGraph(b)(gen.Kronecker(15, 16, 1, 0))
		colors := jpADGColors(g, 1)
		dirty := topDegree(g, 64)
		opts := Options{Procs: 1, Seed: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range dirty {
				colors[v] = 1
			}
			RepairColors(g, colors, dirty, opts, 1)
		}
	})
	b.Run("mutate-kron14-batch64", func(b *testing.B) {
		g := mustGraph(b)(gen.Kronecker(14, 16, 1, 0))
		ov, colors, dirty := overlayRepairCase(b, g, 1, 64, 0, 0)
		start := append([]uint32(nil), colors...)
		opts := Options{Procs: 1, Seed: 1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range dirty {
				colors[v] = start[v]
			}
			RepairColors(ov, colors, dirty, opts, 1)
		}
	})
}
