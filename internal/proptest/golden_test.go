package proptest

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/spec"
	"repro/internal/xrand"
)

// golden pins one (algorithm, graph) run: the FNV-64a hash of its
// coloring and its round, conflict and ordering-iteration counts. The
// values are the same at every worker count.
type golden struct {
	hash                          uint64
	rounds, conflicts, iterations int64
}

// goldenRuns was recorded before the engine's inner loops were
// rewritten to read fewer arcs. The rewrite must not move any of them:
// the service's result cache assumes a fixed seed always gives the
// same coloring. A moved value means a coloring changed.
var goldenRuns = map[string]golden{
	"DEC-ADG-ITR/ba":        {0xc8543d559be5e646, 14, 79, 6},
	"DEC-ADG-ITR/bipartite": {0x68f3ca1559d0dcb5, 2, 0, 2},
	"DEC-ADG-ITR/er":        {0x5d9db2d5c6d8ed04, 19, 94, 8},
	"DEC-ADG-ITR/grid":      {0xc6a9fc9d48539a15, 16, 31, 8},
	"DEC-ADG-ITR/grid64":    {0xbb865d4190fb9586, 64, 125, 32},
	"DEC-ADG-ITR/kron":      {0xbca7ba74bc389993, 13, 27, 4},
	"DEC-ADG-ITR/kron12":    {0xf1d1d6c8f2d7e5af, 37, 726, 7},
	"DEC-ADG-ITR/ws":        {0x4c88a1b73da8cd2, 22, 154, 7},
	"DEC-ADG-M/ba":          {0x33a8ebccb9843d86, 57, 431, 9},
	"DEC-ADG-M/bipartite":   {0xb860c02c0ffc440, 20, 32, 6},
	"DEC-ADG-M/er":          {0x9e943701d1dc1416, 62, 511, 9},
	"DEC-ADG-M/grid":        {0x741e8d7c671c8f6, 42, 325, 9},
	"DEC-ADG-M/grid64":      {0x6d02567209e35236, 125, 5940, 13},
	"DEC-ADG-M/kron":        {0x94826d9b64f7849c, 64, 153, 8},
	"DEC-ADG-M/kron12":      {0x9d63db5f3c71c0b0, 133, 1671, 13},
	"DEC-ADG-M/ws":          {0x3d01e1057481b7c4, 93, 546, 9},
	"DEC-ADG/ba":            {0xea2e2ed3363a11fe, 49, 388, 6},
	"DEC-ADG/bipartite":     {0x2a34024934c22697, 3, 5, 2},
	"DEC-ADG/er":            {0xf466a5a52ffbd4d, 69, 607, 8},
	"DEC-ADG/grid":          {0x609ed7e6053c0a80, 49, 336, 8},
	"DEC-ADG/grid64":        {0x72264d9e8f262a41, 403, 6185, 32},
	"DEC-ADG/kron":          {0xd5f185a023116a78, 35, 99, 4},
	"DEC-ADG/kron12":        {0xa92c6ed33006d1b, 89, 1462, 7},
	"DEC-ADG/ws":            {0xbcd74caab8756fc3, 61, 512, 7},
	"JP-ADG-M/ba":           {0xf93ed758700275b4, 15, 0, 9},
	"JP-ADG-M/bipartite":    {0x68f3ca1559d0dcb5, 2, 0, 6},
	"JP-ADG-M/er":           {0x9ce4841381505652, 24, 0, 9},
	"JP-ADG-M/grid":         {0x9b00d6e1cac8bb25, 35, 0, 9},
	"JP-ADG-M/grid64":       {0x6042de83408ba325, 137, 0, 13},
	"JP-ADG-M/kron":         {0x7594f0b58de949c4, 21, 0, 8},
	"JP-ADG-M/kron12":       {0xa90631adf0ddf0e7, 105, 0, 13},
	"JP-ADG-M/ws":           {0x7ef9d7bae355c176, 43, 0, 9},
	"JP-ADG/ba":             {0x9c72f1abef746383, 17, 0, 6},
	"JP-ADG/bipartite":      {0x68f3ca1559d0dcb5, 2, 0, 2},
	"JP-ADG/er":             {0x4bdaa7e998616280, 23, 0, 8},
	"JP-ADG/grid":           {0x9b00d6e1cac8bb25, 39, 0, 8},
	"JP-ADG/grid64":         {0x6042de83408ba325, 183, 0, 32},
	"JP-ADG/kron":           {0x45d012d21e6ed5dc, 22, 0, 4},
	"JP-ADG/kron12":         {0xaadd8055dd04792, 100, 0, 7},
	"JP-ADG/ws":             {0x6dc70bff1ad28c33, 38, 0, 6},
	"SPEC-ADG/ba":           {0x5feafad394d66894, 260, 3, 6},
	"SPEC-ADG/bipartite":    {0x68f3ca1559d0dcb5, 81, 0, 2},
	"SPEC-ADG/er":           {0x61c227304e54eca0, 262, 6, 8},
	"SPEC-ADG/grid":         {0xc154532a188bb25, 259, 2, 8},
	"SPEC-ADG/grid64":       {0x37b8018db41a0e93, 433, 385, 32},
	"SPEC-ADG/kron":         {0x45d012d21e6ed5dc, 257, 0, 4},
	"SPEC-ADG/kron12":       {0x60a1ea3bc731e29, 352, 149, 7},
	"SPEC-ADG/ws":           {0x4784015d08c196d4, 383, 128, 6},
}

// goldenColored is the hash of a dynamic.Colored's coloring after
// goldenBatches seeded batches on kron:10 (see TestGoldenColoredBatches).
const goldenColored uint64 = 0xc2c560f35bf1054e

const goldenBatches = 64

// goldenGraphs is the proptest family set plus two larger inputs: a
// kron graph with 2^12 vertices, and a 64×64 grid whose ε/12
// decomposition runs 32 ADG iterations, so the ADG update runs in both
// directions and SIM-COL colors many partitions.
func goldenGraphs(t *testing.T) []Family {
	t.Helper()
	fams, err := Families()
	if err != nil {
		t.Fatal(err)
	}
	kron, err := gen.Kronecker(12, 8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid2D(64, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	return append(fams, Family{Name: "kron12", G: kron}, Family{Name: "grid64", G: grid})
}

// goldenAlgorithms are the deterministic engines built on the ADG
// ordering, JP and SIM-COL. DEC-ADG-M is not in the harness registry, so
// it runs through spec directly.
func goldenAlgorithms(t *testing.T) map[string]func(g *graph.Graph, cfg harness.Config) golden {
	t.Helper()
	out := map[string]func(g *graph.Graph, cfg harness.Config) golden{}
	for _, name := range []string{"JP-ADG", "JP-ADG-M", "DEC-ADG", "DEC-ADG-ITR", "SPEC-ADG"} {
		a, err := harness.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = func(g *graph.Graph, cfg harness.Config) golden {
			res, err := harness.RunChecked(a, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return golden{hashColors(res.Colors), int64(res.Rounds), res.Conflicts, int64(res.OrderIterations)}
		}
	}
	out["DEC-ADG-M"] = func(g *graph.Graph, cfg harness.Config) golden {
		res := spec.DECADGM(g, spec.Options{Procs: cfg.Procs, Seed: cfg.Seed, Epsilon: cfg.Epsilon})
		return golden{hashColors(res.Colors), int64(res.Rounds), res.Conflicts, int64(res.OrderIterations)}
	}
	return out
}

func hashColors(colors []uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, c := range colors {
		binary.LittleEndian.PutUint32(b[:], c)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenColorings runs every golden algorithm on every golden graph
// at p ∈ {1, 2, 8} and compares each run with its recorded value.
func TestGoldenColorings(t *testing.T) {
	algos := goldenAlgorithms(t)
	for _, fam := range goldenGraphs(t) {
		for name, run := range algos {
			key := name + "/" + fam.Name
			want, ok := goldenRuns[key]
			for _, p := range []int{1, 2, 8} {
				got := run(fam.G, harness.Config{Procs: p, Seed: 7, Epsilon: 0.01})
				if !ok || got != want {
					t.Errorf("%s at p=%d: got {%#x, %d, %d, %d}, recorded {%#x, %d, %d, %d}",
						key, p, got.hash, got.rounds, got.conflicts, got.iterations,
						want.hash, want.rounds, want.conflicts, want.iterations)
				}
			}
		}
	}
}

// TestGoldenColoredBatches applies goldenBatches seeded batches to a
// dynamic.Colored at p ∈ {1, 2, 8} and compares the final coloring with
// its recorded hash. Each batch inserts 24 random edges and deletes the
// ones inserted 8 batches earlier; every 16th batch also adds two
// vertices wired to random old ones, so both the localized repair and
// new-vertex coloring run.
func TestGoldenColoredBatches(t *testing.T) {
	g, err := gen.Kronecker(10, 16, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 8} {
		c := dynamic.NewColored(g, dynamic.Options{Procs: p, Seed: 7, Epsilon: 0.01})
		rng := xrand.New(11)
		var inserted [][]graph.Edge
		for i := 0; i < goldenBatches; i++ {
			var b dynamic.Batch
			n := c.Overlay().NumVertices()
			if i%16 == 15 {
				b.AddVertices = 2
				for k := 0; k < 2; k++ {
					for j := 0; j < 4; j++ {
						b.AddEdges = append(b.AddEdges, graph.Edge{U: uint32(n + k), V: uint32(rng.Intn(n))})
					}
				}
			}
			var add []graph.Edge
			for len(add) < 24 {
				u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
				if u != v && !c.Overlay().HasEdge(u, v) {
					add = append(add, graph.Edge{U: min(u, v), V: max(u, v)})
				}
			}
			inserted = append(inserted, add)
			b.AddEdges = append(b.AddEdges, add...)
			if i >= 8 {
				b.DelEdges = inserted[i-8]
			}
			if _, err := c.Apply(b); err != nil {
				t.Fatalf("p=%d batch %d: %v", p, i, err)
			}
		}
		if got := hashColors(c.Colors()); got != goldenColored {
			t.Errorf("p=%d: coloring hash %#x after %d batches (%d repairs, %d full recolors), recorded %#x",
				p, got, goldenBatches, c.Repairs(), c.FullRecolors(), goldenColored)
		}
	}
}
