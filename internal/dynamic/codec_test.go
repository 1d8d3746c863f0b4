package dynamic

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/verify"
	"repro/internal/xrand"
)

func TestBatchCodecRoundTrip(t *testing.T) {
	cases := []Batch{
		{},
		{AddVertices: 3},
		{AddEdges: []graph.Edge{{U: 0, V: 1}, {U: 7, V: 2}}},
		{DelEdges: []graph.Edge{{U: 4, V: 4}}},
		{DelVertices: []uint32{1, 2, 3}},
		{
			AddVertices: 2,
			DelVertices: []uint32{9},
			DelEdges:    []graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}},
			AddEdges:    []graph.Edge{{U: 5, V: 6}},
		},
	}
	for i, b := range cases {
		enc := b.AppendBinary(nil)
		dec, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(b), normalize(dec)) {
			t.Fatalf("case %d: round trip %+v -> %+v", i, b, dec)
		}
		// Appending to a non-empty buffer leaves the prefix alone.
		pre := []byte{0xaa, 0xbb}
		enc2 := b.AppendBinary(pre)
		if enc2[0] != 0xaa || enc2[1] != 0xbb || !reflect.DeepEqual(enc2[2:], enc) {
			t.Fatalf("case %d: AppendBinary corrupted the prefix", i)
		}
	}
}

// normalize maps nil and empty slices together for comparison.
func normalize(b Batch) Batch {
	if len(b.DelVertices) == 0 {
		b.DelVertices = nil
	}
	if len(b.DelEdges) == 0 {
		b.DelEdges = nil
	}
	if len(b.AddEdges) == 0 {
		b.AddEdges = nil
	}
	return b
}

func TestBatchCodecRejectsCorruption(t *testing.T) {
	b := Batch{
		AddVertices: 1,
		DelVertices: []uint32{3},
		AddEdges:    []graph.Edge{{U: 1, V: 2}},
	}
	enc := b.AppendBinary(nil)
	if _, err := DecodeBatch(nil); err == nil {
		t.Error("empty encoding accepted")
	}
	if _, err := DecodeBatch([]byte{99}); err == nil {
		t.Error("unknown codec version accepted")
	}
	// Every strict prefix must be rejected (truncation detection).
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBatch(enc[:cut]); err == nil {
			t.Errorf("prefix of %d/%d bytes accepted", cut, len(enc))
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeBatch(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
	// A huge count must fail before allocating.
	huge := []byte{batchCodecVersion, 0}
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01) // maxed uvarint
	if _, err := DecodeBatch(huge); err == nil {
		t.Error("absurd count accepted")
	}
}

// TestRestoreColoredContinuesHistory pins the recovery determinism
// contract: (restore at version k, then apply batches k+1..n) must
// reproduce byte-for-byte the maintained coloring of a replica that
// applied all n batches incrementally from the start.
func TestRestoreColoredContinuesHistory(t *testing.T) {
	base, err := gen.Kronecker(7, 6, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Procs: 1, Seed: 5, Epsilon: 0.01}
	ref := NewColored(base, opts)
	rng := xrand.New(777)
	var batches []Batch
	const total, mid = 9, 4
	var midGraph *graph.Graph
	var midColors []uint32
	var midVersion uint64
	for len(batches) < total {
		var b Batch
		for i := 0; i < 5; i++ {
			u, v := uint32(rng.Intn(base.NumVertices())), uint32(rng.Intn(base.NumVertices()))
			if rng.Intn(4) == 0 {
				b.DelEdges = append(b.DelEdges, graph.Edge{U: u, V: v})
			} else {
				b.AddEdges = append(b.AddEdges, graph.Edge{U: u, V: v})
			}
		}
		before := ref.Version()
		if _, err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
		if ref.Version() == before {
			continue
		}
		batches = append(batches, b)
		if len(batches) == mid {
			g, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			midGraph, midColors, midVersion = g, ref.Colors(), ref.Version()
		}
	}

	restored, err := RestoreColored(midGraph, midColors, midVersion, opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Version() != midVersion || restored.NumColors() != verify.NumColors(midColors) {
		t.Fatalf("restored at version %d numColors %d, want %d", restored.Version(), restored.NumColors(), verify.NumColors(midColors))
	}
	for _, b := range batches[mid:] {
		res, err := restored.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		if want := verify.NumColors(restored.Colors()); res.NumColors != want || restored.NumColors() != want {
			t.Fatalf("version %d: result %d colors, NumColors %d, recount %d", res.Version, res.NumColors, restored.NumColors(), want)
		}
	}
	if restored.Version() != ref.Version() {
		t.Fatalf("version %d, want %d", restored.Version(), ref.Version())
	}
	got, want := restored.Colors(), ref.Colors()
	if len(got) != len(want) {
		t.Fatalf("colors length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("maintained coloring diverged at vertex %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestRestoreColoredRejectsBadState(t *testing.T) {
	base, err := gen.Kronecker(5, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Procs: 1, Seed: 1}
	if _, err := RestoreColored(base, make([]uint32, 3), 1, opts); err == nil {
		t.Fatal("wrong-length coloring accepted")
	}
	// An improper coloring (all ones on a graph with edges) is refused.
	bad := make([]uint32, base.NumVertices())
	for i := range bad {
		bad[i] = 1
	}
	if _, err := RestoreColored(base, bad, 1, opts); err == nil {
		t.Fatal("improper coloring accepted")
	}
}
