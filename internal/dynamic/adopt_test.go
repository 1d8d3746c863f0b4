package dynamic

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/recolor"
	"repro/internal/verify"
)

// TestAdoptColors exercises the adoption contract end to end: a real
// iterated-greedy improvement is adopted (version untouched, count
// drops), while improper candidates, wrong lengths and non-improving
// candidates are all rejected without touching the maintained state.
func TestAdoptColors(t *testing.T) {
	g, err := gen.ErdosRenyiGNM(400, 3000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewColored(g, Options{Procs: 2, Seed: 1})
	before := c.NumColors()
	versionBefore := c.Version()

	// Manufacture a guaranteed strict improvement: run iterated greedy
	// until the count drops (ER at this density always has slack over a
	// one-shot JP-ADG run; fail loudly if this graph ever stops being a
	// useful fixture rather than looping forever).
	var improved []uint32
	for seed := uint64(1); seed < 64; seed++ {
		res, err := recolor.IteratedGreedy(g, c.Colors(), recolor.RandomOrder, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumColors < before {
			improved = res.Colors
			break
		}
	}
	if improved == nil {
		t.Skip("no strict improvement found on the fixture graph; adoption path not reachable here")
	}

	saved, err := c.AdoptColors(improved)
	if err != nil {
		t.Fatalf("adopting a strict improvement: %v", err)
	}
	if saved <= 0 || c.NumColors() >= before {
		t.Fatalf("adoption saved %d colors, maintained count %d (was %d)", saved, c.NumColors(), before)
	}
	if c.Version() != versionBefore {
		t.Fatalf("adoption moved the version: %d -> %d", versionBefore, c.Version())
	}
	if err := verify.CheckProper(g, c.Colors()); err != nil {
		t.Fatalf("maintained coloring improper after adoption: %v", err)
	}

	after := c.NumColors()
	// Re-adopting the same coloring is not an improvement.
	if _, err := c.AdoptColors(c.Colors()); err == nil || !strings.Contains(err.Error(), "strictly fewer") {
		t.Fatalf("non-improving adoption accepted (err=%v)", err)
	}
	// Wrong length.
	if _, err := c.AdoptColors(improved[:len(improved)-1]); err == nil {
		t.Fatal("wrong-length adoption accepted")
	}
	// Improper candidate: clone the current coloring, break one edge.
	bad := c.Colors()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > 0 {
			bad[g.Neighbors(uint32(v))[0]] = bad[v]
			break
		}
	}
	if _, err := c.AdoptColors(bad); err == nil {
		t.Fatal("improper adoption accepted")
	}
	if c.NumColors() != after {
		t.Fatalf("rejected adoptions changed the maintained count: %d -> %d", after, c.NumColors())
	}
}

// TestAdoptColorsHugeColorValue: a proper candidate with one color class
// relabeled 4294967295 is counted without a color-indexed allocation
// (it used to wrap the counter's length to 0 and panic) and rejected
// for not using fewer colors.
func TestAdoptColorsHugeColorValue(t *testing.T) {
	g, err := gen.ErdosRenyiGNM(400, 3000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewColored(g, Options{Procs: 2, Seed: 1})
	before := c.Colors()
	cand := c.Colors()
	for v, col := range cand {
		if col == 1 {
			cand[v] = math.MaxUint32
		}
	}
	if _, err := c.AdoptColors(cand); err == nil || !strings.Contains(err.Error(), "strictly fewer") {
		t.Fatalf("relabeled candidate: err = %v, want a not-strictly-fewer rejection", err)
	}
	if got := c.Colors(); !reflect.DeepEqual(got, before) {
		t.Fatal("rejected adoption changed the maintained coloring")
	}
}
