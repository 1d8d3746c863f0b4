package harness

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/verify"
)

func smallOptions() Options {
	// Keep experiment smoke tests fast: tiny scale, single trial.
	return Options{Scale: 1, Procs: 2, Seed: 7, Epsilon: 0.1, Trials: 1}
}

func TestRegistryNamesUniqueAndComplete(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate algorithm %q", n)
		}
		seen[n] = true
	}
	// The paper's headline schemes must all be present.
	for _, want := range []string{"JP-ADG", "JP-ADG-M", "DEC-ADG", "DEC-ADG-ITR",
		"JP-SL", "JP-SLL", "JP-LLF", "JP-R", "JP-FF", "JP-LF", "JP-ASL",
		"ITR", "ITRB", "GM", "Luby-MIS", "Greedy-ID", "Greedy-SD"} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("JP-ADG"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestEveryAlgorithmRunsChecked(t *testing.T) {
	g, err := gen.Kronecker(9, 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: 2, Seed: 5, Epsilon: 0.1}
	for _, a := range Registry() {
		res, err := RunChecked(a, g, cfg)
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		if res.NumColors < 1 {
			t.Errorf("%s: no colors", a.Name)
		}
		if res.TotalSeconds() < 0 {
			t.Errorf("%s: negative time", a.Name)
		}
	}
}

func TestJPAlgorithmsReportPhaseSplit(t *testing.T) {
	g, err := gen.ErdosRenyiGNM(2000, 10000, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"JP-ADG", "JP-SL", "DEC-ADG-ITR"} {
		a, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunChecked(a, g, Config{Procs: 2, Seed: 1, Epsilon: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if res.ReorderSeconds <= 0 {
			t.Errorf("%s: no reorder phase recorded", name)
		}
		if res.ColorSeconds <= 0 {
			t.Errorf("%s: no color phase recorded", name)
		}
	}
}

func TestBuildSuite(t *testing.T) {
	suite, err := BuildSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) < 5 {
		t.Fatalf("suite has only %d graphs", len(suite))
	}
	for _, bg := range suite {
		if err := bg.G.Validate(); err != nil {
			t.Errorf("%s: %v", bg.Name, err)
		}
		if bg.G.NumVertices() == 0 {
			t.Errorf("%s: empty graph", bg.Name)
		}
		if bg.StandsFor == "" {
			t.Errorf("%s: missing Table V mapping", bg.Name)
		}
	}
}

func TestSuiteHasLowDegeneracyAndHeavyTailMix(t *testing.T) {
	// The suite must include the d ≪ Δ regime that motivates the paper
	// (§IV-E) and at least one bounded-degree graph.
	suite, err := BuildSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	foundSkewed, foundFlat := false, false
	for _, bg := range suite {
		d := kcore.Degeneracy(bg.G)
		if d > 0 && bg.G.MaxDegree() > 10*d {
			foundSkewed = true
		}
		if bg.G.MaxDegree() <= 2*d+4 {
			foundFlat = true
		}
	}
	if !foundSkewed {
		t.Error("no d<<maxdeg graph in the suite")
	}
	if !foundFlat {
		t.Error("no bounded-degree graph in the suite")
	}
}

func TestExperimentDriversSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers are slow")
	}
	o := smallOptions()
	for name, fn := range Experiments() {
		switch name {
		case "fig1", "table3", "fig2strong", "fig2weak":
			continue // covered by the dedicated tests below at smaller size
		}
		out, err := fn(o)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short output:\n%s", name, out)
		}
	}
}

func TestTableIIOutputsGuarantees(t *testing.T) {
	out, err := TableII(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ADG", "SL", "guaranteed k", "2(1+eps)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestVerifyAll(t *testing.T) {
	if err := VerifyAll(3); err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckedRejectsBrokenColoring(t *testing.T) {
	g, err := gen.Path(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	broken := Algorithm{
		Name:  "broken",
		Class: ClassJP,
		Run: func(_ *graph.Graph, _ Config) (*RunResult, error) {
			return &RunResult{Colors: []uint32{1, 1, 1, 1}, NumColors: 1}, nil
		},
	}
	if _, err := RunChecked(broken, g, Config{}); err == nil {
		t.Fatal("RunChecked accepted a monochromatic path coloring")
	}
	// Sanity: the same predicate catches it directly.
	if verify.CheckProper(g, []uint32{1, 1, 1, 1}) == nil {
		t.Fatal("verify accepted a monochromatic path")
	}
}
