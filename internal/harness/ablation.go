package harness

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/jp"
	"repro/internal/order"
	"repro/internal/stats"
	"repro/internal/verify"
)

// Ablation regenerates §VI-J ("Additional Analyses of Design Choices"):
// the impact of the §V implementation choices on JP-ADG — the CRCW
// UPDATE, which pushes or pulls per iteration, against the pull-only
// CREW one (§III-B/§V-E), batch sorting on/off and the sorting algorithm
// (§V-A/B), average vs median threshold (§V-D), fused DAG construction
// (§V-C) and degree-sum caching (§V-F). The paper reports each choice
// moves performance by up to ~10% without changing the patterns; the
// table shows time, ADG rounds and final colors per variant.
func Ablation(o Options) (string, error) {
	o = o.withDefaults()
	g, err := gen.Kronecker(13+log2i(o.Scale), 16, o.Seed, o.Procs)
	if err != nil {
		return "", err
	}
	type variant struct {
		name string
		opts order.ADGOptions
	}
	base := order.ADGOptions{Epsilon: o.Epsilon, Procs: o.Procs, Seed: o.Seed}
	variants := []variant{
		{"CRCW (push, pull if cheaper)", base},
		{"CREW (pull only, Alg.2)", func() order.ADGOptions { v := base; v.CREW = true; return v }()},
		{"cached-sums (SV-F)", func() order.ADGOptions { v := base; v.CacheDegreeSums = true; return v }()},
		{"sorted counting (ADG-O)", func() order.ADGOptions { v := base; v.Sorted = true; return v }()},
		{"sorted radix (SV-B)", func() order.ADGOptions {
			v := base
			v.Sorted = true
			v.Sort = order.SortRadix
			return v
		}()},
		{"sorted quick (SV-B)", func() order.ADGOptions {
			v := base
			v.Sorted = true
			v.Sort = order.SortQuick
			return v
		}()},
		{"median (ADG-M, SV-D)", func() order.ADGOptions { v := base; v.Median = true; return v }()},
		{"median sorted (ADG-M-O)", func() order.ADGOptions {
			v := base
			v.Median = true
			v.Sorted = true
			return v
		}()},
	}
	t := &stats.Table{Header: []string{"ADG variant", "order time[s]", "rounds", "JP colors", "fused DAG"}}
	for _, v := range variants {
		var ord *order.Ordering
		samples := stats.Bench(1, o.Trials, func() { ord = order.ADG(g, v.opts) })
		s := stats.Summarize(samples)
		res := jp.Color(g, ord, o.Procs)
		if err := verify.CheckProper(g, res.Colors); err != nil {
			return "", fmt.Errorf("ablation %s: %v", v.name, err)
		}
		fused := "no"
		if ord.PredCount != nil {
			fused = "yes"
		}
		t.Add(v.name, s.Mean, ord.Iterations, res.NumColors, fused)
	}
	head := fmt.Sprintf("SVI-J stand-in: ADG design-choice ablation on kron (n=%d m=%d), eps=%.2f\n",
		g.NumVertices(), g.NumEdges(), o.Epsilon)
	return head + t.String(), nil
}
