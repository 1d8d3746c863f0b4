// Package proptest is the cross-cutting property suite: for every
// algorithm in the harness registry crossed with every graph family of
// the evaluation (Kronecker, Erdős–Rényi, grid, complete bipartite,
// Watts–Strogatz small-world, Barabási–Albert preferential attachment)
// it asserts the three guarantees the paper states and this codebase
// leans on everywhere —
//
//  1. properness: every run returns a proper coloring (also re-checked
//     by harness.RunChecked itself);
//  2. seed-determinism: algorithms registered Deterministic return a
//     bit-identical coloring at p ∈ {1, 2, 8} for a fixed seed (the
//     property the serving layer's result cache is sound under);
//  3. quality: the color count stays within the algorithm's provable
//     bound (verify.QualityBound — e.g. JP-ADG within
//     2(1+ε)·degeneracy+1, Table III).
//
// The helpers live outside the _test file so future suites (e.g. a
// fuzzed mutation property test) can reuse the family set and checks.
package proptest

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/kcore"
	"repro/internal/verify"
)

// Family is one graph family instance of the evaluation suite.
type Family struct {
	Name string
	G    *graph.Graph
	// Degeneracy is the exact degeneracy d, computed once per family
	// (the quality bounds are functions of it).
	Degeneracy int
}

// Families builds the property-test graph set: small instances of the
// six families so the full algorithm × family × procs cross product
// stays test-suite fast.
func Families() ([]Family, error) {
	type build struct {
		name string
		g    *graph.Graph
		err  error
	}
	kron, kerr := gen.Kronecker(7, 8, 3, 0)
	er, eerr := gen.ErdosRenyiGNM(400, 1600, 5, 0)
	grid, gerr := gen.Grid2D(16, 16, 0)
	bip, berr := gen.CompleteBipartite(10, 30, 0)
	ws, werr := gen.WattsStrogatz(300, 6, 0.1, 9, 0)
	ba, aerr := gen.BarabasiAlbert(300, 4, 11, 0)
	var out []Family
	for _, b := range []build{
		{"kron", kron, kerr},
		{"er", er, eerr},
		{"grid", grid, gerr},
		{"bipartite", bip, berr},
		{"ws", ws, werr},
		{"ba", ba, aerr},
	} {
		if b.err != nil {
			return nil, fmt.Errorf("proptest: building %s: %v", b.name, b.err)
		}
		out = append(out, Family{Name: b.name, G: b.g, Degeneracy: kcore.Degeneracy(b.g)})
	}
	return out, nil
}

// Violation describes one failed property (empty string means clean).
type Violation string

// CheckAlgorithm runs one algorithm on one family and checks all three
// properties, returning every violation found.
func CheckAlgorithm(a harness.Algorithm, fam Family, seed uint64, eps float64) []Violation {
	var out []Violation
	cfg := func(p int) harness.Config {
		return harness.Config{Procs: p, Seed: seed, Epsilon: eps}
	}
	// RunChecked verifies properness internally; double-check against
	// verify.CheckProper so a harness regression cannot mask one here.
	ref, err := harness.RunChecked(a, fam.G, cfg(2))
	if err != nil {
		return []Violation{Violation(fmt.Sprintf("%s on %s: %v", a.Name, fam.Name, err))}
	}
	if err := verify.CheckProper(fam.G, ref.Colors); err != nil {
		out = append(out, Violation(fmt.Sprintf("%s on %s: improper: %v", a.Name, fam.Name, err)))
	}

	// Quality: within the algorithm's provable bound.
	bound := verify.QualityBound(a.Name, fam.G, fam.Degeneracy, eps)
	if err := verify.AssertBound(a.Name, ref.NumColors, bound); err != nil {
		out = append(out, Violation(fmt.Sprintf("on %s (d=%d): %v", fam.Name, fam.Degeneracy, err)))
	}

	// Seed-determinism across worker counts, for the algorithms that
	// guarantee it (the property the result cache relies on).
	if a.Deterministic {
		for _, p := range []int{1, 8} {
			res, err := harness.RunChecked(a, fam.G, cfg(p))
			if err != nil {
				out = append(out, Violation(fmt.Sprintf("%s on %s at p=%d: %v", a.Name, fam.Name, p, err)))
				continue
			}
			for v := range res.Colors {
				if res.Colors[v] != ref.Colors[v] {
					out = append(out, Violation(fmt.Sprintf(
						"%s on %s: nondeterministic at p=%d vs p=2: vertex %d colored %d vs %d",
						a.Name, fam.Name, p, v, res.Colors[v], ref.Colors[v])))
					break
				}
			}
		}
	}
	return out
}
