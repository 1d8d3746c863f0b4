package speculate

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jp"
	"repro/internal/order"
	"repro/internal/verify"
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

func families(t *testing.T) map[string]*graph.Graph {
	mg := mustGraph(t)
	return map[string]*graph.Graph{
		"kron": mg(gen.Kronecker(10, 8, 3, 0)),
		"er":   mg(gen.ErdosRenyiGNM(400, 1600, 5, 0)),
		"grid": mg(gen.Grid2D(16, 16, 0)),
		"bip":  mg(gen.CompleteBipartite(10, 30, 0)),
		"ws":   mg(gen.WattsStrogatz(300, 6, 0.1, 9, 0)),
		"ba":   mg(gen.BarabasiAlbert(300, 4, 11, 0)),
	}
}

// TestProperAndBoundedAcrossFamilies: the result must be proper and
// within the speculative family's Δ+1 bound on every graph family.
func TestProperAndBoundedAcrossFamilies(t *testing.T) {
	for name, g := range families(t) {
		res, err := Color(g, Options{Procs: 2, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.CheckProper(g, res.Colors); err != nil {
			t.Fatalf("%s: improper coloring: %v", name, err)
		}
		if res.NumColors > g.MaxDegree()+1 {
			t.Errorf("%s: %d colors exceeds Δ+1 = %d", name, res.NumColors, g.MaxDegree()+1)
		}
		if res.NumColors != verify.NumColors(res.Colors) {
			t.Errorf("%s: NumColors %d does not match colors", name, res.NumColors)
		}
		if res.SpecChunks <= 0 || res.Rounds <= 0 || res.EdgesScanned <= 0 {
			t.Errorf("%s: degenerate stats %+v", name, res)
		}
	}
}

// TestDeterministicAcrossProcs pins the strong Las Vegas property the
// serving layer's cache depends on: p ∈ {1, 2, 8} give bit-identical
// colorings for a fixed seed.
func TestDeterministicAcrossProcs(t *testing.T) {
	for name, g := range families(t) {
		for _, chunks := range []int{0, 16} {
			base, err := Color(g, Options{Procs: 1, Seed: 7, SpecChunks: chunks})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 8} {
				got, err := Color(g, Options{Procs: p, Seed: 7, SpecChunks: chunks})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Colors, base.Colors) {
					t.Fatalf("%s chunks=%d: p=%d coloring differs from p=1", name, chunks, p)
				}
			}
		}
	}
}

// TestFullChunksMatchesJPADG: with one vertex per chunk nothing is
// speculated — the sweep is exactly sequential greedy over the ADG-O
// total order, which is the JP fixed point. Zero conflicts, and the
// coloring equals JP-ADG's over the same ordering.
func TestFullChunksMatchesJPADG(t *testing.T) {
	g := mustGraph(t)(gen.Kronecker(9, 8, 3, 0))
	res, err := Color(g, Options{Procs: 2, Seed: 3, SpecChunks: g.NumVertices()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts != 0 || res.Fallback {
		t.Fatalf("full chunking speculated nothing but conflicts=%d fallback=%v", res.Conflicts, res.Fallback)
	}
	// No arc joins two vertices of one chunk, so detection reads none
	// and the run reads each arc twice: in the sweep and the final check.
	if want := 2 * g.NumArcs(); res.EdgesScanned != want {
		t.Errorf("EdgesScanned = %d, want %d", res.EdgesScanned, want)
	}
	ord, err := order.ADGContext(context.Background(), g, order.ADGOptions{
		Epsilon: 0.01, Procs: 2, Seed: 3, Sorted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := jp.ColorContext(context.Background(), g, ord, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Colors, jr.Colors) {
		t.Fatal("SpecChunks=n coloring differs from JP-ADG over the same ordering")
	}
}

// TestMaximalSpeculationFallsBack: SpecChunks=1 speculates every edge
// away (everything gets color 1), the fraction bound trips, and the
// engine must fall back to a coloring identical to JP-ADG's.
func TestMaximalSpeculationFallsBack(t *testing.T) {
	g := mustGraph(t)(gen.ErdosRenyiGNM(300, 1500, 4, 5))
	res, err := Color(g, Options{Procs: 2, Seed: 11, SpecChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("SpecChunks=1 did not fall back")
	}
	ord, err := order.ADGContext(context.Background(), g, order.ADGOptions{
		Epsilon: 0.01, Procs: 2, Seed: 11, Sorted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	jr, err := jp.ColorContext(context.Background(), g, ord, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Colors, jr.Colors) {
		t.Fatal("fallback coloring differs from JP-ADG")
	}
}

// TestDisabledFallbackRepairsEverything: with the fraction bound off,
// even maximal speculation must be repaired to properness by the
// localized engine alone.
func TestDisabledFallbackRepairsEverything(t *testing.T) {
	g := mustGraph(t)(gen.Grid2D(12, 12, 0))
	res, err := Color(g, Options{Procs: 2, Seed: 1, SpecChunks: 1, FallbackFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatal("fallback ran despite FallbackFraction < 0")
	}
	if res.Conflicts == 0 {
		t.Fatal("maximal speculation reported no conflicts")
	}
	if err := verify.CheckProper(g, res.Colors); err != nil {
		t.Fatalf("improper coloring: %v", err)
	}
}

func TestEdgeCaseGraphs(t *testing.T) {
	mg := mustGraph(t)
	empty := mg(graph.FromEdges(0, nil, 1))
	res, err := Color(empty, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Colors) != 0 || res.NumColors != 0 {
		t.Fatalf("empty graph: %+v", res)
	}

	// Isolated vertices only: everything gets color 1, no conflicts.
	iso := mg(graph.FromEdges(5, nil, 1))
	res, err = Color(iso, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 1 || res.Conflicts != 0 {
		t.Fatalf("isolated vertices: NumColors=%d Conflicts=%d", res.NumColors, res.Conflicts)
	}

	// Single edge: two colors, chunk count clamps to n=2.
	pair := mg(graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, 1))
	res, err = Color(pair, Options{SpecChunks: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors != 2 || res.SpecChunks != 2 {
		t.Fatalf("single edge: NumColors=%d SpecChunks=%d", res.NumColors, res.SpecChunks)
	}
}

func TestCancellation(t *testing.T) {
	g := mustGraph(t)(gen.Kronecker(12, 8, 3, 0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ColorContext(ctx, g, Options{Procs: 2}); err == nil {
		t.Fatal("cancelled context did not abort the run")
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := ColorContext(dctx, g, Options{Procs: 2}); err == nil {
		t.Fatal("expired deadline did not abort the run")
	}
}

// TestQualityTracksJPADG calibrates the measured palette against JP-ADG
// across the families: SPEC-ADG may use a few more colors (the probe
// shows ±2 at the default chunking) but must stay within 1.5× + 2.
func TestQualityTracksJPADG(t *testing.T) {
	for name, g := range families(t) {
		res, err := Color(g, Options{Procs: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		ord, err := order.ADGContext(context.Background(), g, order.ADGOptions{
			Epsilon: 0.01, Procs: 2, Seed: 42, Sorted: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		jr, err := jp.ColorContext(context.Background(), g, ord, 2)
		if err != nil {
			t.Fatal(err)
		}
		if limit := jr.NumColors*3/2 + 2; res.NumColors > limit {
			t.Errorf("%s: SPEC-ADG used %d colors, JP-ADG %d (limit %d)",
				name, res.NumColors, jr.NumColors, limit)
		}
	}
}

// BenchmarkSPECADG times one SPEC-ADG run on kron:15, the cold_color
// graph, at p 1 and 2, beside jp.BenchmarkJPADG and
// spec.BenchmarkDECADGITR, and reports the speculate and repair phases
// in ms per run.
func BenchmarkSPECADG(b *testing.B) {
	g := mustGraph(b)(gen.Kronecker(15, 16, 1, 0))
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("kron15-p%d", p), func(b *testing.B) {
			var specSec, repairSec float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Color(g, Options{Procs: p, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				specSec += res.SpecSeconds
				repairSec += res.RepairSeconds
			}
			b.ReportMetric(1e3*specSec/float64(b.N), "speculate-ms/op")
			b.ReportMetric(1e3*repairSec/float64(b.N), "repair-ms/op")
		})
	}
}
