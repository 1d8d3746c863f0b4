package harness

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/order"
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

// TestProcsOneForksNothing: a run asked for one worker stays on the
// calling goroutine, so it neither forks nor dispatches to the par
// pool, whatever GOMAXPROCS is, and no loop in it even asks for more
// workers (no sequential-cutoff hit). That makes a Procs 1 run a true
// one-core baseline.
func TestProcsOneForksNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := gen.Kronecker(13, 16, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Registry() {
		res, err := RunChecked(a, g, Config{Procs: 1, Seed: 1, Epsilon: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if res.Forks != 0 || res.Dispatches != 0 || res.SeqCutoffHits != 0 {
			t.Errorf("%s at Procs 1: %d forks, %d dispatches, %d sequential-cutoff hits",
				a.Name, res.Forks, res.Dispatches, res.SeqCutoffHits)
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
	// A scale is built once per process: a second call shares the graphs.
	again, err := BuildSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].G != suite[i].G {
			t.Errorf("%s: rebuilt on the second call", again[i].Name)
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
		t.Run(name, func(t *testing.T) {
			out, err := fn(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) < 50 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
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

// TestSweepRecordsEveryCell pins Sweep's cell order (graph, then
// algorithm, then config), the identity fields and the bound fields of
// every record.
func TestSweepRecordsEveryCell(t *testing.T) {
	kron, err := gen.Kronecker(9, 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid2D(20, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := append(single("kron", kron), single("grid", grid)...)
	algos, err := lookupAll("JP-ADG", "DEC-ADG-ITR", "Greedy-ID")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{{Procs: 1, Seed: 5, Epsilon: 0.1}, {Procs: 2, Seed: 5, Epsilon: 1}}
	recs, err := Sweep(graphs, algos, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(graphs)*len(algos)*len(cfgs) {
		t.Fatalf("%d records for %d cells", len(recs), len(graphs)*len(algos)*len(cfgs))
	}
	i := 0
	for _, bg := range graphs {
		d := kcore.Degeneracy(bg.G)
		for _, a := range algos {
			for _, cfg := range cfgs {
				r := recs[i]
				i++
				if r.Graph != bg.Name || r.Name != a.Name || r.P != cfg.Procs || r.Epsilon != cfg.Epsilon {
					t.Fatalf("record %d is %s/%s p=%d eps=%g, want %s/%s p=%d eps=%g",
						i-1, r.Graph, r.Name, r.P, r.Epsilon, bg.Name, a.Name, cfg.Procs, cfg.Epsilon)
				}
				if r.SchemaVersion != RecordSchemaVersion || r.Vertices != bg.G.NumVertices() || r.Arcs != bg.G.NumArcs() {
					t.Errorf("%s on %s: identity fields %+v", a.Name, bg.Name, r)
				}
				if want := verify.QualityBound(a.Name, bg.G, d, cfg.Epsilon); r.Bound != want {
					t.Errorf("%s on %s at eps %g: bound %d, want %d", a.Name, bg.Name, cfg.Epsilon, r.Bound, want)
				}
				if r.Colors < 1 || !r.BoundOK || r.Seconds != r.ReorderSeconds+r.ColorSeconds {
					t.Errorf("%s on %s: run fields %+v", a.Name, bg.Name, r)
				}
			}
		}
	}
}

// TestSweepKeepsMedianRun checks that a cell keeps the run with the
// median time, every field taken from that run, and that a proper but
// over-bound coloring is recorded rather than rejected.
func TestSweepKeepsMedianRun(t *testing.T) {
	g, err := gen.ErdosRenyiGNM(300, 1500, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One color per vertex: proper, and far above JP-SL's d+1.
	distinct := make([]uint32, g.NumVertices())
	for v := range distinct {
		distinct[v] = uint32(v + 1)
	}
	for _, tc := range []struct {
		times      []float64
		wantRounds int // the 1-based call that holds the median time
	}{
		{[]float64{0.3, 0.1, 0.2}, 3},
		{[]float64{0.4, 0.1, 0.3, 0.2}, 4},
		{[]float64{0.5}, 1},
	} {
		calls := 0
		fake := Algorithm{Name: "JP-SL", Class: ClassJP, Run: func(_ *graph.Graph, _ Config) (*RunResult, error) {
			calls++
			sec := tc.times[calls-1]
			return &RunResult{
				Colors: distinct, NumColors: len(distinct), ColorSeconds: sec,
				Rounds: calls, Conflicts: int64(10 * calls),
			}, nil
		}}
		recs, err := Sweep(single("er", g), []Algorithm{fake}, []Config{{Procs: 1}}, len(tc.times))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || calls != len(tc.times) {
			t.Fatalf("%d records after %d runs, want 1 after %d", len(recs), calls, len(tc.times))
		}
		r := recs[0]
		if r.Rounds != tc.wantRounds || r.Conflicts != int64(10*tc.wantRounds) || r.Seconds != tc.times[tc.wantRounds-1] {
			t.Errorf("times %v: kept run %d (%g s, %d conflicts), want run %d",
				tc.times, r.Rounds, r.Seconds, r.Conflicts, tc.wantRounds)
		}
		if want := kcore.Degeneracy(g) + 1; r.Bound != want || r.BoundOK {
			t.Errorf("over-bound run: bound %d ok %v, want %d and false", r.Bound, r.BoundOK, want)
		}
	}
}

// TestMedianOrderingKeepsMedianRun checks that table2's and ablation's
// ordering timer reports the median-time run and that run's ordering.
// The runs sleep 100, 0 and 50 ms, far enough apart that scheduling
// noise cannot reorder them.
func TestMedianOrderingKeepsMedianRun(t *testing.T) {
	sleeps := []time.Duration{100 * time.Millisecond, 0, 50 * time.Millisecond}
	calls := 0
	ord, secs := medianOrdering(len(sleeps), func() *order.Ordering {
		time.Sleep(sleeps[calls])
		calls++
		return &order.Ordering{Iterations: calls}
	})
	if calls != len(sleeps) {
		t.Fatalf("%d builds, want %d", calls, len(sleeps))
	}
	if ord.Iterations != 3 || secs < 0.05 || secs >= 0.1 {
		t.Fatalf("kept build %d (%g s), want build 3 (50 ms)", ord.Iterations, secs)
	}
}

// TestSweepFailsOnBadRun checks that an improper coloring or a run
// error fails the sweep instead of producing a record.
func TestSweepFailsOnBadRun(t *testing.T) {
	g, err := gen.Path(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	errRun := errors.New("run failed")
	for _, tc := range []struct {
		name string
		run  func(*graph.Graph, Config) (*RunResult, error)
		want error // wrapped by the sweep's error, when not nil
	}{
		{"improper", func(*graph.Graph, Config) (*RunResult, error) {
			return &RunResult{Colors: []uint32{1, 1, 1, 1}, NumColors: 1}, nil
		}, nil},
		{"run error", func(*graph.Graph, Config) (*RunResult, error) { return nil, errRun }, errRun},
	} {
		recs, err := Sweep(single("path", g), []Algorithm{{Name: "broken", Run: tc.run}}, []Config{{}}, 2)
		if err == nil || recs != nil {
			t.Fatalf("%s: Sweep returned %v, %v", tc.name, recs, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: %v does not wrap %v", tc.name, err, tc.want)
		}
	}
}

// TestMatrixReportCells checks colorbench -matrix's cell selection:
// every suite graph × the named algorithms × the worker counts.
func TestMatrixReportCells(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dataset suite")
	}
	recs, err := MatrixReport(smallOptions(), []string{"JP-ADG", "SPEC-ADG"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(DefaultSuite()) * 2 * 2; len(recs) != want {
		t.Fatalf("%d records, want %d", len(recs), want)
	}
	for _, r := range recs {
		if !r.BoundOK {
			t.Errorf("%s on %s at p=%d: %d colors over bound %d", r.Name, r.Graph, r.P, r.Colors, r.Bound)
		}
	}
	if _, err := MatrixReport(smallOptions(), []string{"nope"}, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
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
