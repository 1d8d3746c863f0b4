package order

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
)

// testGraphs builds a small zoo of structurally diverse graphs.
func testGraphs(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	add := func(name string) func(*graph.Graph, error) {
		return func(g *graph.Graph, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = g
		}
	}
	add("er")(gen.ErdosRenyiGNM(400, 1600, 1, 2))
	add("kron")(gen.Kronecker(9, 8, 2, 2))
	add("ba")(gen.BarabasiAlbert(500, 4, 3, 2))
	add("grid")(gen.Grid2D(20, 20, 2))
	add("star")(gen.Star(200, 2))
	add("clique")(gen.Complete(30, 2))
	add("path")(gen.Path(100, 2))
	add("comm")(gen.Community(200, 4, 0.4, 200, 4, 2))
	add("bip")(gen.CompleteBipartite(10, 40, 2))
	add("edgeless")(func() (*graph.Graph, error) { return graph.FromEdges(10, nil, 1) }())
	add("empty")(func() (*graph.Graph, error) { return graph.FromEdges(0, nil, 1) }())
	return out
}

func adgVariants() map[string]ADGOptions {
	return map[string]ADGOptions{
		"ADG-eps0.01":  {Epsilon: 0.01, Procs: 2, Seed: 7},
		"ADG-eps0.1":   {Epsilon: 0.1, Procs: 2, Seed: 7},
		"ADG-eps1":     {Epsilon: 1, Procs: 2, Seed: 7},
		"ADG-CREW":     {Epsilon: 0.1, Procs: 2, Seed: 7, CREW: true},
		"ADG-M":        {Procs: 2, Seed: 7, Median: true},
		"ADG-O-eps0.1": {Epsilon: 0.1, Procs: 2, Seed: 7, Sorted: true},
		"ADG-M-O":      {Procs: 2, Seed: 7, Median: true, Sorted: true},
		"ADG-seq":      {Epsilon: 0.1, Procs: 1, Seed: 7},
		"ADG-O-seq":    {Epsilon: 0.1, Procs: 1, Seed: 7, Sorted: true},
	}
}

func TestADGValidOrdering(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for vname, opts := range adgVariants() {
			o := ADG(g, opts)
			if err := o.Validate(g); err != nil {
				t.Errorf("%s/%s: %v", gname, vname, err)
			}
		}
	}
}

func TestADGApproximationFactor(t *testing.T) {
	// Lemma 4 / Lemma 15: the partial ordering is 2(1+ε)-approximate
	// (4-approximate for the median variant): every vertex has at most
	// bound·d neighbors with equal-or-higher rank.
	for gname, g := range testGraphs(t) {
		d := kcore.Degeneracy(g)
		if d == 0 {
			continue
		}
		for vname, opts := range adgVariants() {
			o := ADG(g, opts)
			got := MaxEqualOrHigherRankNeighbors(g, o.Rank)
			bound := ApproxFactorBound(opts) * float64(d)
			if float64(got) > bound+1e-9 {
				t.Errorf("%s/%s: max equal-or-higher neighbors %d > bound %.2f (d=%d)",
					gname, vname, got, bound, d)
			}
		}
	}
}

func TestADGIterationBound(t *testing.T) {
	// Lemma 1: O(log n) iterations; concretely ≤ ⌈log n / log(1+ε)⌉ + 1.
	for gname, g := range testGraphs(t) {
		n := g.NumVertices()
		if n == 0 {
			continue
		}
		for _, eps := range []float64{0.01, 0.1, 0.5, 1, 2} {
			o := ADG(g, ADGOptions{Epsilon: eps, Procs: 2, Seed: 1})
			bound := TheoreticalIterationBound(n, eps)
			if o.Iterations > bound {
				t.Errorf("%s eps=%v: %d iterations > bound %d", gname, eps, o.Iterations, bound)
			}
		}
	}
}

func TestADGMedianIterationBound(t *testing.T) {
	// Lemma 14: ADG-M halves the active set each round -> ≤ ⌈log2 n⌉+1.
	for gname, g := range testGraphs(t) {
		n := g.NumVertices()
		if n == 0 {
			continue
		}
		o := ADG(g, ADGOptions{Median: true, Procs: 2, Seed: 1})
		bound := 1
		for 1<<uint(bound) < n {
			bound++
		}
		bound += 2
		if o.Iterations > bound {
			t.Errorf("%s: ADG-M %d iterations > log2 bound %d", gname, o.Iterations, bound)
		}
	}
}

func TestADGPartitionsCoverAndOrder(t *testing.T) {
	g := testGraphs(t)["kron"]
	o := ADG(g, ADGOptions{Epsilon: 0.1, Procs: 2, Seed: 5})
	if o.Partitions == nil {
		t.Fatal("plain ADG must expose partitions")
	}
	if len(o.Partitions) != o.Iterations {
		t.Fatalf("partitions %d != iterations %d", len(o.Partitions), o.Iterations)
	}
	seen := make([]bool, g.NumVertices())
	for i, part := range o.Partitions {
		if len(part) == 0 {
			t.Fatalf("empty partition %d", i)
		}
		for _, v := range part {
			if seen[v] {
				t.Fatalf("vertex %d in two partitions", v)
			}
			seen[v] = true
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d not in any partition", v)
		}
	}
}

func TestADGPushPullEquivalent(t *testing.T) {
	// CRCW (each iteration pushes or pulls, whichever pullCheaper picks)
	// and CREW (always pull, Algorithm 2) must compute identical
	// orderings, for plain ADG, ADG-O and ADG-M-O alike.
	graphs := pushGraphs(t)
	for _, name := range []string{"path", "grid40"} {
		g := graphs[name]
		dirs := updateDirections(g, ADG(g, ADGOptions{Epsilon: 0.01 / 12, Procs: 2, Seed: 9}))
		if !strings.Contains(dirs, "push") || !strings.Contains(dirs, "pull") {
			t.Errorf("%s at ε 0.01/12: directions %q, want both", name, dirs)
		}
	}
	variants := map[string]ADGOptions{
		"ADG-eps0.1":       {Epsilon: 0.1},
		"ADG-eps0.01/12":   {Epsilon: 0.01 / 12},
		"ADG-O-eps0.1":     {Epsilon: 0.1, Sorted: true},
		"ADG-O-eps0.01/12": {Epsilon: 0.01 / 12, Sorted: true},
		"ADG-M-O":          {Median: true, Sorted: true},
	}
	for gname, g := range graphs {
		for vname, opts := range variants {
			opts.Procs, opts.Seed = 2, 9
			a := ADG(g, opts)
			opts.CREW = true
			b := ADG(g, opts)
			where := gname + "/" + vname
			if !slices.Equal(a.Rank, b.Rank) || !slices.Equal(a.Keys, b.Keys) ||
				!slices.Equal(a.PredCount, b.PredCount) || a.Iterations != b.Iterations {
				t.Errorf("%s: CRCW and CREW orderings differ", where)
			}
			if !slices.EqualFunc(a.Partitions, b.Partitions, slices.Equal) {
				t.Errorf("%s: CRCW and CREW partitions differ", where)
			}
		}
	}
}

// pushGraphs is testGraphs plus a 40×40 grid. At ε 0.01/12 the path and
// the grid peel a thin layer per iteration, so there the UPDATE rule
// pushes in most iterations.
func pushGraphs(t testing.TB) map[string]*graph.Graph {
	graphs := testGraphs(t)
	grid, err := gen.Grid2D(40, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs["grid40"] = grid
	return graphs
}

// updateDirections replays pullCheaper over the batches of a plain ADG
// run and names the UPDATE direction of each iteration.
func updateDirections(g *graph.Graph, o *Ordering) string {
	vol := g.NumArcs()
	var dirs []string
	for _, part := range o.Partitions {
		var volBatch int64
		for _, v := range part {
			volBatch += int64(g.Degree(v))
		}
		vol -= volBatch
		if pullCheaper(vol, volBatch) {
			dirs = append(dirs, "pull")
		} else {
			dirs = append(dirs, "push")
		}
	}
	return strings.Join(dirs, " ")
}

func TestPullCheaper(t *testing.T) {
	for _, c := range []struct {
		survivors, batch int64
		pull             bool
	}{
		{799, 100, true},
		{800, 100, true}, // the boundary: pull reads exactly 8× the arcs
		{801, 100, false},
		{1 << 40, 1 << 37, true},
		{1<<40 + 1, 1 << 37, false},
		{1, 0, false}, // a batch of isolated vertices has nothing to push
		{0, 0, true},  // nothing to read either way
		{0, 3, true},  // the last batch: no survivors to pull into
	} {
		if got := pullCheaper(c.survivors, c.batch); got != c.pull {
			t.Errorf("pullCheaper(%d, %d) = %v, want %v", c.survivors, c.batch, got, c.pull)
		}
	}
}

// TestThresholdRoundings pins both roundings of (1+ε)·δ̂ where they
// disagree: at ε 0.01/12, a window of 3 vertices with degree sum 3600
// cuts at exactly 1201 in plain ADG and just below it in ADG-O, so a
// vertex of degree 1201 joins the batch in one and not the other.
func TestThresholdRoundings(t *testing.T) {
	if got := threshold(0.01/12, 3600, 3, false); got != 1201 {
		t.Errorf("plain ADG threshold = %v, want 1201", got)
	}
	if got := threshold(0.01/12, 3600, 3, true); got >= 1201 {
		t.Errorf("ADG-O threshold = %v, want just below 1201", got)
	}
}

func TestADGDeterministicAcrossProcs(t *testing.T) {
	// The removal schedule is deterministic: ranks must not depend on the
	// worker count (Las Vegas randomness lives only in the seed).
	for gname, g := range testGraphs(t) {
		base := ADG(g, ADGOptions{Epsilon: 0.05, Seed: 11, Procs: 1})
		for _, p := range []int{2, 4} {
			o := ADG(g, ADGOptions{Epsilon: 0.05, Seed: 11, Procs: p})
			for v := range base.Rank {
				if base.Rank[v] != o.Rank[v] {
					t.Errorf("%s: rank[%d] differs between p=1 and p=%d", gname, v, p)
					break
				}
			}
		}
	}
}

func TestADGSortedIsTotalOrderByResidualDegree(t *testing.T) {
	// ADG-O: ranks are a permutation of 0..n-1 and within each removal the
	// batch is ordered by residual degree (checked indirectly: the measured
	// approximation factor cannot exceed plain ADG's bound).
	g := testGraphs(t)["ba"]
	o := ADG(g, ADGOptions{Epsilon: 0.1, Procs: 2, Seed: 3, Sorted: true})
	n := g.NumVertices()
	seen := make([]bool, n)
	for _, r := range o.Rank {
		if int(r) >= n || seen[r] {
			t.Fatal("ADG-O ranks are not a permutation")
		}
		seen[r] = true
	}
}

func TestADGSortedPredCountMatchesKeys(t *testing.T) {
	// §V-C: the fused rank array must equal the JP DAG in-degree computed
	// from the final keys.
	for gname, g := range testGraphs(t) {
		o := ADG(g, ADGOptions{Epsilon: 0.1, Procs: 2, Seed: 13, Sorted: true})
		want := PredCounts(g, o.Keys, 2)
		for v := range want {
			if o.PredCount[v] != want[v] {
				t.Errorf("%s: PredCount[%d]=%d want %d", gname, v, o.PredCount[v], want[v])
				break
			}
		}
	}
}

func TestADGEpsilonMonotoneIterations(t *testing.T) {
	// Fig. 3's mechanism: larger ε ⇒ no more iterations (usually fewer).
	g := testGraphs(t)["er"]
	prev := 1 << 30
	for _, eps := range []float64{0.01, 0.1, 0.5, 1, 4} {
		o := ADG(g, ADGOptions{Epsilon: eps, Procs: 2, Seed: 1})
		if o.Iterations > prev {
			t.Errorf("eps=%v: iterations %d > previous %d", eps, o.Iterations, prev)
		}
		prev = o.Iterations
	}
}

func TestADGNegativeEpsilonClamped(t *testing.T) {
	g := testGraphs(t)["path"]
	o := ADG(g, ADGOptions{Epsilon: -3, Procs: 1, Seed: 1})
	if err := o.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestADGRandomGraphsProperty(t *testing.T) {
	check := func(seed uint64, nRaw, mRaw uint8, median, sorted bool) bool {
		n := int(nRaw%60) + 2
		m := int64(mRaw) % 250
		g, err := gen.ErdosRenyiGNM(n, m, seed, 1)
		if err != nil {
			return false
		}
		opts := ADGOptions{Epsilon: 0.25, Procs: 2, Seed: seed, Median: median, Sorted: sorted}
		o := ADG(g, opts)
		if o.Validate(g) != nil {
			return false
		}
		d := kcore.Degeneracy(g)
		if d == 0 {
			return true
		}
		got := MaxEqualOrHigherRankNeighbors(g, o.Rank)
		return float64(got) <= ApproxFactorBound(opts)*float64(d)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestTheoreticalIterationBound(t *testing.T) {
	if TheoreticalIterationBound(1, 0.5) != 1 {
		t.Fatal("n=1 bound")
	}
	if TheoreticalIterationBound(1000, 0) != 1000 {
		t.Fatal("eps=0 bound should degrade to n")
	}
	if b := TheoreticalIterationBound(1024, 1.0); b < 10 || b > 12 {
		t.Fatalf("log2 bound = %d", b)
	}
}

func TestApproxFactorBound(t *testing.T) {
	if got := ApproxFactorBound(ADGOptions{Epsilon: 0.5}); got != 3 {
		t.Fatalf("2(1+0.5)=%v", got)
	}
	if got := ApproxFactorBound(ADGOptions{Median: true}); got != 4 {
		t.Fatalf("median bound=%v", got)
	}
}

// BenchmarkADG times the ADG variants on kron:13, plus one input on
// each side of the UPDATE direction rule: DEC's plain ADG at ε 0.01/12
// on grid:300:300, which pushes in most iterations, and JP-ADG's ADG-O
// at ε 0.01 on kron:15, which pulls in most.
func BenchmarkADG(b *testing.B) {
	kron := func(scale int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) { return gen.Kronecker(scale, 16, 1, 0) }
	}
	grid := func() (*graph.Graph, error) { return gen.Grid2D(300, 300, 0) }
	for _, cfg := range []struct {
		name  string
		graph func() (*graph.Graph, error)
		opts  ADGOptions
	}{
		{"plain", kron(13), ADGOptions{Epsilon: 0.01}},
		{"crew", kron(13), ADGOptions{Epsilon: 0.01, CREW: true}},
		{"median", kron(13), ADGOptions{Median: true}},
		{"sorted", kron(13), ADGOptions{Epsilon: 0.01, Sorted: true}},
		{"push-grid300-eps/12", grid, ADGOptions{Epsilon: 0.01 / 12}},
		{"pull-kron15-sorted", kron(15), ADGOptions{Epsilon: 0.01, Sorted: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			g, err := cfg.graph()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ADG(g, cfg.opts)
			}
		})
	}
}

// TestADGAllocatesLinearly bounds the bytes one ADG call allocates on
// grid:300:300 at ε 0.01/12, DEC's decomposition, which peels 150 thin
// layers. A loop that allocates O(|active|) per iteration allocates
// hundreds of bytes per vertex here; one that allocates its buffers once
// per call stays under 64.
func TestADGAllocatesLinearly(t *testing.T) {
	g, err := gen.Grid2D(300, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sorted := range []bool{false, true} {
		opts := ADGOptions{Epsilon: 0.01 / 12, Procs: 2, Seed: 1, Sorted: sorted}
		ADG(g, opts) // warm the par pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := ADG(g, opts)
		runtime.ReadMemStats(&after)
		perVertex := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumVertices())
		if perVertex > 64 {
			t.Errorf("%s: %.1f bytes per vertex over %d iterations, want <= 64", o.Name, perVertex, o.Iterations)
		}
	}
}

func TestADGCachedSumsEquivalent(t *testing.T) {
	// §V-F: incremental degree-sum maintenance must not change the
	// removal schedule — identical ranks, both UPDATE styles. At
	// ε 0.01/12 the CRCW runs on the path and the grid push, so the cut
	// is counted on both sides.
	for gname, g := range pushGraphs(t) {
		for _, eps := range []float64{0.1, 0.01 / 12} {
			for _, crew := range []bool{false, true} {
				base := ADG(g, ADGOptions{Epsilon: eps, Procs: 2, Seed: 9, CREW: crew})
				cached := ADG(g, ADGOptions{Epsilon: eps, Procs: 2, Seed: 9, CREW: crew, CacheDegreeSums: true})
				if base.Iterations != cached.Iterations {
					t.Errorf("%s eps=%v crew=%v: iterations differ %d vs %d", gname, eps, crew, base.Iterations, cached.Iterations)
				}
				for v := range base.Rank {
					if base.Rank[v] != cached.Rank[v] {
						t.Errorf("%s eps=%v crew=%v: rank[%d] differs with cached sums", gname, eps, crew, v)
						break
					}
				}
			}
		}
	}
}

func TestADGSortAlgChoicesAllValid(t *testing.T) {
	// §V-B: radix, counting and quicksort orders all satisfy the ADG-O
	// contract (total order, approximation bound, fused PredCount).
	for gname, g := range testGraphs(t) {
		d := kcore.Degeneracy(g)
		for _, alg := range []SortAlg{SortCounting, SortRadix, SortQuick} {
			opts := ADGOptions{Epsilon: 0.1, Procs: 2, Seed: 4, Sorted: true, Sort: alg}
			o := ADG(g, opts)
			if err := o.Validate(g); err != nil {
				t.Errorf("%s alg=%d: %v", gname, alg, err)
				continue
			}
			if d > 0 {
				if got := MaxEqualOrHigherRankNeighbors(g, o.Rank); float64(got) > ApproxFactorBound(opts)*float64(d) {
					t.Errorf("%s alg=%d: approx factor violated", gname, alg)
				}
			}
			want := PredCounts(g, o.Keys, 2)
			for v := range want {
				if o.PredCount[v] != want[v] {
					t.Errorf("%s alg=%d: fused PredCount wrong at %d", gname, alg, v)
					break
				}
			}
		}
	}
}

func TestADGSortStabilityCountingVsQuick(t *testing.T) {
	// Counting sort and quicksort-with-ID-tiebreak both order each batch
	// by degree; within equal degrees counting keeps array order while
	// quick uses ascending IDs. On a fresh ADG array (IDs in order) the
	// two coincide.
	g := testGraphs(t)["er"]
	a := ADG(g, ADGOptions{Epsilon: 0.1, Procs: 1, Seed: 4, Sorted: true, Sort: SortCounting})
	b := ADG(g, ADGOptions{Epsilon: 0.1, Procs: 1, Seed: 4, Sorted: true, Sort: SortQuick})
	for v := range a.Rank {
		if a.Rank[v] != b.Rank[v] {
			t.Fatalf("counting vs quick diverge at vertex %d", v)
		}
	}
}
