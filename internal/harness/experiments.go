package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/gen"
	"repro/internal/kcore"
	"repro/internal/order"
	"repro/internal/stats"
)

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the suite's graph sizes (1 = default).
	Scale int
	// Procs is the worker count used unless the experiment sweeps it.
	Procs int
	// Seed fixes all randomness.
	Seed uint64
	// Epsilon is ADG's ε (the paper's Fig. 1 parametrization is 0.01).
	Epsilon float64
	// Trials is the number of timed runs per point. Every experiment
	// reports the median-time run, the lower middle one for an even
	// count.
	Trials int
}

func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.Procs <= 0 {
		o.Procs = 2
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.01
	}
	if o.Trials < 1 {
		o.Trials = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o Options) cfg() Config {
	return Config{Procs: o.Procs, Seed: o.Seed, Epsilon: o.Epsilon}
}

// procsConfigs returns o's run config once per worker count.
func (o Options) procsConfigs(procs ...int) []Config {
	out := make([]Config, len(procs))
	for i, p := range procs {
		out[i] = o.cfg()
		out[i].Procs = p
	}
	return out
}

// SuiteTable regenerates the Table V stand-in: the dataset inventory with
// n, m, Δ, δ̂ and the exact degeneracy d (experiment E9).
func SuiteTable(o Options) (string, error) {
	o = o.withDefaults()
	suite, err := BuildSuite(o.Scale)
	if err != nil {
		return "", err
	}
	t := &stats.Table{Header: []string{"graph", "stands-for", "n", "m", "maxdeg", "avgdeg", "degeneracy d"}}
	for _, bg := range suite {
		d := kcore.Degeneracy(bg.G)
		t.Add(bg.Name, bg.StandsFor, bg.G.NumVertices(), bg.G.NumEdges(),
			bg.G.MaxDegree(), bg.G.AvgDegree(), d)
	}
	return "Table V stand-in: synthetic dataset suite\n" + t.String(), nil
}

// TableII regenerates Table II as a measured comparison of ordering
// heuristics (experiment E1): parallel rounds (depth proxy), ordering
// time, measured approximation quality (max equal-or-higher-rank
// neighbors / d) against the proven factor where one exists.
func TableII(o Options) (string, error) {
	o = o.withDefaults()
	g, err := gen.Kronecker(14, 16, o.Seed, o.Procs)
	if err != nil {
		return "", err
	}
	d := kcore.Degeneracy(g)
	type entry struct {
		name  string
		bound string
		mk    func() *order.Ordering
	}
	eps := o.Epsilon
	entries := []entry{
		{"FF", "n/a", func() *order.Ordering { return order.FirstFit(g) }},
		{"R", "n/a", func() *order.Ordering { return order.Random(g, o.Seed) }},
		{"LF", "n/a", func() *order.Ordering { return order.LargestFirst(g, o.Seed) }},
		{"LLF", "n/a", func() *order.Ordering { return order.LargestLogFirst(g, o.Seed) }},
		{"SL", "exact (1.0)", func() *order.Ordering { return order.SmallestLast(g) }},
		{"SLL", "none", func() *order.Ordering { return order.SmallestLogLast(g, o.Seed, o.Procs) }},
		{"ASL", "none", func() *order.Ordering { return order.ApproxSmallestLast(g, o.Seed, o.Procs) }},
		{"ADG", fmt.Sprintf("2(1+eps)=%.2f", 2*(1+eps)), func() *order.Ordering {
			return order.ADG(g, order.ADGOptions{Epsilon: eps, Procs: o.Procs, Seed: o.Seed})
		}},
		{"ADG-M", "4.00", func() *order.Ordering {
			return order.ADG(g, order.ADGOptions{Median: true, Procs: o.Procs, Seed: o.Seed})
		}},
	}
	t := &stats.Table{Header: []string{"ordering", "rounds", "time[s]", "max-back-nbrs", "measured k", "guaranteed k"}}
	for _, e := range entries {
		ord, secs := medianOrdering(o.Trials, e.mk)
		back := order.MaxEqualOrHigherRankNeighbors(g, ord.Rank)
		measured := "n/a"
		if d > 0 {
			measured = stats.FormatFloat(float64(back) / float64(d))
		}
		t.Add(e.name, ord.Iterations, secs, back, measured, e.bound)
	}
	head := fmt.Sprintf("Table II stand-in: ordering heuristics on kron (n=%d m=%d d=%d), eps=%.2f\n",
		g.NumVertices(), g.NumEdges(), d, eps)
	return head + t.String(), nil
}

// TableIII regenerates the practical side of Table III (experiment E2):
// for every algorithm, colors used and runtime on each suite graph, the
// provable quality bound, and whether it held.
func TableIII(o Options) (string, error) {
	o = o.withDefaults()
	suite, err := BuildSuite(o.Scale)
	if err != nil {
		return "", err
	}
	algos := Registry()
	recs, err := Sweep(suite, algos, []Config{o.cfg()}, o.Trials)
	if err != nil {
		return "", err
	}
	t := &stats.Table{Header: []string{"algorithm", "class", "graph", "colors", "bound", "ok", "time[s]"}}
	for ai, a := range algos {
		for gi := range suite {
			r := recs[gi*len(algos)+ai]
			ok := "yes"
			if !r.BoundOK {
				ok = "VIOLATED"
			}
			t.Add(a.Name, string(a.Class), r.Graph, r.Colors, r.Bound, ok, r.Seconds)
		}
	}
	return "Table III stand-in: measured algorithm matrix\n" + t.String(), nil
}

// Figure1 regenerates Fig. 1 (experiment E3): per graph and algorithm,
// the reordering/coloring time split and the coloring quality relative to
// JP-R, grouped into the SC and JP classes.
func Figure1(o Options) (string, error) {
	o = o.withDefaults()
	suite, err := BuildSuite(o.Scale)
	if err != nil {
		return "", err
	}
	algos := figure1Algorithms()
	recs, err := Sweep(suite, algos, []Config{o.cfg()}, o.Trials)
	if err != nil {
		return "", err
	}
	// JP-R is the quality baseline of the relative-quality panels.
	base := slices.IndexFunc(algos, func(a Algorithm) bool { return a.Name == "JP-R" })
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 stand-in: run-times and coloring quality (procs=%d, eps=%.2f, %d trials)\n",
		o.Procs, o.Epsilon, o.Trials)
	for gi, bg := range suite {
		row := recs[gi*len(algos):][:len(algos)]
		fmt.Fprintf(&b, "\n## %s (n=%d m=%d)\n", bg.Name, bg.G.NumVertices(), bg.G.NumEdges())
		t := &stats.Table{Header: []string{"algorithm", "class", "reorder[s]", "color[s]", "total[s]", "colors", "vs JP-R"}}
		for ai, a := range algos {
			r := row[ai]
			t.Add(a.Name, string(a.Class), r.ReorderSeconds, r.ColorSeconds,
				r.Seconds, r.Colors, float64(r.Colors)/float64(row[base].Colors))
		}
		b.WriteString(t.String())
	}
	return b.String(), nil
}

// figure1Algorithms mirrors the algorithm set of Fig. 1's panels.
func figure1Algorithms() []Algorithm {
	var out []Algorithm
	for _, a := range Registry() {
		switch a.Name {
		case "Greedy-ID", "Greedy-SD", "Luby-MIS", "GM", "DEC-ADG":
			// Fig. 1 excludes sequential Greedy, and excludes DEC-ADG in
			// favor of DEC-ADG-ITR (the paper states it is of mostly
			// theoretical interest); Luby/GM appear only in Table III.
			continue
		}
		out = append(out, a)
	}
	// Grouped by class (JP before SC), matching the figure's panels.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// Figure2Weak regenerates the weak-scaling panel of Fig. 2 (experiment
// E4): Kronecker graphs with edges/vertex ∈ {1,2,4,8,...} paired with a
// growing worker count; ideal weak scaling keeps the time flat.
func Figure2Weak(o Options) (string, error) {
	o = o.withDefaults()
	algs, err := lookupAll("JP-ADG", "DEC-ADG-ITR", "JP-LLF", "JP-R", "ITR")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 stand-in (weak scaling): Kronecker scale=%d, eps=%.2f\n", 13+log2i(o.Scale), o.Epsilon)
	t := &stats.Table{Header: []string{"edges/vertex + procs", "algorithm", "time[s]", "colors"}}
	points := []struct{ ef, procs int }{{1, 1}, {2, 2}, {4, 4}, {8, 8}}
	for _, pt := range points {
		g, err := gen.Kronecker(13+log2i(o.Scale), pt.ef, o.Seed, 0)
		if err != nil {
			return "", err
		}
		point := fmt.Sprintf("%d+%d", pt.ef, pt.procs)
		cfg := Config{Procs: pt.procs, Seed: o.Seed, Epsilon: o.Epsilon}
		recs, err := Sweep(single(fmt.Sprintf("kron-ef%d", pt.ef), g), algs, []Config{cfg}, o.Trials)
		if err != nil {
			return "", err
		}
		for _, r := range recs {
			t.Add(point, r.Name, r.Seconds, r.Colors)
		}
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// Figure2Strong regenerates the strong-scaling panels of Fig. 2
// (experiment E5): fixed graphs, worker count swept over {1, 2, 4}.
func Figure2Strong(o Options) (string, error) {
	o = o.withDefaults()
	suite, err := BuildSuite(o.Scale)
	if err != nil {
		return "", err
	}
	// Two graphs, one heavy-tailed and one flat, like h-bai and s-pok.
	picks := pick(suite, "kron-social", "er-uniform")
	algs, err := lookupAll("JP-ADG", "DEC-ADG-ITR", "JP-LLF", "JP-R", "JP-SL", "ITR")
	if err != nil {
		return "", err
	}
	cfgs := o.procsConfigs(1, 2, 4)
	recs, err := Sweep(picks, algs, cfgs, o.Trials)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 stand-in (strong scaling): procs in {1,2,4}, eps=%.2f\n", o.Epsilon)
	for _, bg := range picks {
		fmt.Fprintf(&b, "\n## %s (n=%d m=%d)\n", bg.Name, bg.G.NumVertices(), bg.G.NumEdges())
		t := &stats.Table{Header: []string{"algorithm", "p=1[s]", "p=2[s]", "p=4[s]", "speedup p=2", "speedup p=4"}}
		for _, a := range algs {
			p1, p2, p4 := recs[0].Seconds, recs[1].Seconds, recs[2].Seconds
			recs = recs[len(cfgs):]
			t.Add(a.Name, p1, p2, p4, stats.Speedup(p1, p2), stats.Speedup(p1, p4))
		}
		b.WriteString(t.String())
	}
	return b.String(), nil
}

// Figure3Epsilon regenerates Fig. 3 (experiment E6): the impact of ε on
// full runtime and coloring quality for JP-ADG and DEC-ADG-ITR on a
// heavy-tailed and a road-like graph.
func Figure3Epsilon(o Options) (string, error) {
	o = o.withDefaults()
	suite, err := BuildSuite(o.Scale)
	if err != nil {
		return "", err
	}
	picks := pick(suite, "kron-web", "grid-road")
	algs, err := lookupAll("JP-ADG", "DEC-ADG-ITR")
	if err != nil {
		return "", err
	}
	epss := []float64{0.01, 0.1, 1.0}
	var cfgs []Config
	for _, eps := range epss {
		cfgs = append(cfgs, Config{Procs: o.Procs, Seed: o.Seed, Epsilon: eps})
	}
	recs, err := Sweep(picks, algs, cfgs, o.Trials)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 3 stand-in: impact of epsilon on runtime and quality\n")
	for gi, bg := range picks {
		fmt.Fprintf(&b, "\n## %s (n=%d m=%d)\n", bg.Name, bg.G.NumVertices(), bg.G.NumEdges())
		t := &stats.Table{Header: []string{"epsilon", "algorithm", "full time[s]", "colors", "ADG rounds", "color rounds"}}
		for ei, eps := range epss {
			for ai := range algs {
				r := recs[(gi*len(algs)+ai)*len(epss)+ei]
				t.Add(stats.FormatFloat(eps), r.Name, r.Seconds, r.Colors, r.OrderIterations, r.Rounds)
			}
		}
		b.WriteString(t.String())
	}
	return b.String(), nil
}

// pick returns the suite graphs with the given names, in suite order.
func pick(suite []BuiltGraph, names ...string) []BuiltGraph {
	var out []BuiltGraph
	for _, bg := range suite {
		if slices.Contains(names, bg.Name) {
			out = append(out, bg)
		}
	}
	return out
}

// Figure4Memory regenerates Fig. 4 (experiment E7) with software proxies
// replacing PAPI hardware counters (see EXPERIMENTS.md): atomic operations and
// adjacency words scanned per edge, plus speculative conflict counts.
// Lower values mean less memory-bus pressure. It prints no time, so one
// trial per algorithm suffices.
func Figure4Memory(o Options) (string, error) {
	o = o.withDefaults()
	g, err := gen.Kronecker(13+log2i(o.Scale), 8, o.Seed, 0)
	if err != nil {
		return "", err
	}
	algos := figure1Algorithms()
	recs, err := Sweep(single("kron", g), algos, []Config{o.cfg()}, 1)
	if err != nil {
		return "", err
	}
	m := float64(g.NumEdges())
	var b strings.Builder
	b.WriteString("Figure 4 stand-in: memory-pressure proxies (software counters replace PAPI)\n")
	t := &stats.Table{Header: []string{"algorithm", "class", "edges-scanned/m", "atomics/m", "conflicts/n", "rounds"}}
	for i, a := range algos {
		r := recs[i]
		t.Add(a.Name, string(a.Class),
			float64(r.EdgesScanned)/m,
			float64(r.AtomicOps)/m,
			float64(r.Conflicts)/float64(r.Vertices),
			r.Rounds)
	}
	b.WriteString(t.String())
	return b.String(), nil
}

// Figure5Profile regenerates Fig. 5 (experiment E8): the Dolan–Moré
// performance profile of coloring quality across the suite. It prints
// no time, so one trial per cell suffices.
func Figure5Profile(o Options) (string, error) {
	o = o.withDefaults()
	suite, err := BuildSuite(o.Scale)
	if err != nil {
		return "", err
	}
	recs, err := Sweep(suite, figure1Algorithms(), []Config{o.cfg()}, 1)
	if err != nil {
		return "", err
	}
	results := map[string][]float64{}
	for _, r := range recs {
		results[r.Name] = append(results[r.Name], float64(r.Colors))
	}
	profiles, err := stats.PerfProfile(results)
	if err != nil {
		return "", err
	}
	taus := []float64{1.0, 1.05, 1.1, 1.2, 1.5, 2.0}
	t := &stats.Table{Header: []string{"algorithm", "tau=1.0", "1.05", "1.1", "1.2", "1.5", "2.0"}}
	var names []string
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cells := []interface{}{name}
		for _, tau := range taus {
			cells = append(cells, fmt.Sprintf("%3.0f%%", 100*stats.ProfileAt(profiles[name], tau)))
		}
		t.Add(cells...)
	}
	return "Figure 5 stand-in: performance profile of coloring quality\n" +
		"(fraction of suite graphs within factor tau of the best coloring)\n" + t.String(), nil
}

// Experiments maps experiment names to drivers (the colorbench CLI).
func Experiments() map[string]func(Options) (string, error) {
	return map[string]func(Options) (string, error){
		"suite":      SuiteTable,
		"table2":     TableII,
		"table3":     TableIII,
		"fig1":       Figure1,
		"fig2weak":   Figure2Weak,
		"fig2strong": Figure2Strong,
		"fig3":       Figure3Epsilon,
		"fig4":       Figure4Memory,
		"fig5":       Figure5Profile,
		"ablation":   Ablation,
		"dynamic":    DynamicRepair,
	}
}
