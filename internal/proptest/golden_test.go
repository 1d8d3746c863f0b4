package proptest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/harness"
	"repro/internal/order"
	"repro/internal/recolor"
	"repro/internal/spec"
	"repro/internal/speculate"
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

	// SPEC-ADG off its defaults (goldenSpecVariants), recorded before
	// the chunk sweep kept its same-chunk neighbor lists.
	"SPEC-ADG(chunks=1)/ba":                    {0x9c72f1abef746383, 20, 0, 6},
	"SPEC-ADG(chunks=1)/bipartite":             {0x68f3ca1559d0dcb5, 5, 0, 2},
	"SPEC-ADG(chunks=1)/er":                    {0x4bdaa7e998616280, 26, 0, 8},
	"SPEC-ADG(chunks=1)/grid":                  {0x9b00d6e1cac8bb25, 42, 0, 8},
	"SPEC-ADG(chunks=1)/grid64":                {0x6042de83408ba325, 186, 0, 32},
	"SPEC-ADG(chunks=1)/kron":                  {0x45d012d21e6ed5dc, 25, 0, 4},
	"SPEC-ADG(chunks=1)/kron12":                {0xaadd8055dd04792, 103, 0, 7},
	"SPEC-ADG(chunks=1)/ws":                    {0x6dc70bff1ad28c33, 41, 0, 6},
	"SPEC-ADG(chunks=1,fallback=-1)/ba":        {0xf06fcf6776eaa8a2, 21, 300, 6},
	"SPEC-ADG(chunks=1,fallback=-1)/bipartite": {0x68f3ca1559d0dcb5, 5, 40, 2},
	"SPEC-ADG(chunks=1,fallback=-1)/er":        {0xadc74d003b15c397, 25, 399, 8},
	"SPEC-ADG(chunks=1,fallback=-1)/grid":      {0x9b00d6e1cac8bb25, 42, 256, 8},
	"SPEC-ADG(chunks=1,fallback=-1)/grid64":    {0x6042de83408ba325, 186, 4096, 32},
	"SPEC-ADG(chunks=1,fallback=-1)/kron":      {0x6b0f6bcaad1c5a41, 24, 113, 4},
	"SPEC-ADG(chunks=1,fallback=-1)/kron12":    {0xca70a6b3960da280, 110, 3001, 7},
	"SPEC-ADG(chunks=1,fallback=-1)/ws":        {0x41df6e90c4afc293, 39, 300, 6},
	"SPEC-ADG(chunks=16)/ba":                   {0x81787ef41e7b28e0, 49, 29, 6},
	"SPEC-ADG(chunks=16)/bipartite":            {0x68f3ca1559d0dcb5, 33, 0, 2},
	"SPEC-ADG(chunks=16)/er":                   {0xcda7b6a4172fb63, 62, 66, 8},
	"SPEC-ADG(chunks=16)/grid":                 {0xb648aeaa0206bff7, 64, 52, 8},
	"SPEC-ADG(chunks=16)/grid64":               {0x53909423d1ef5925, 227, 2255, 32},
	"SPEC-ADG(chunks=16)/kron":                 {0x1847b9fe650c9f18, 48, 20, 4},
	"SPEC-ADG(chunks=16)/kron12":               {0xf96b8d49e6dfeead, 162, 562, 7},
	"SPEC-ADG(chunks=16)/ws":                   {0x6a3e99468fe89be7, 109, 174, 6},
	"SPEC-ADG(fallback=-1)/ba":                 {0x5feafad394d66894, 260, 3, 6},
	"SPEC-ADG(fallback=-1)/bipartite":          {0x68f3ca1559d0dcb5, 81, 0, 2},
	"SPEC-ADG(fallback=-1)/er":                 {0x61c227304e54eca0, 262, 6, 8},
	"SPEC-ADG(fallback=-1)/grid":               {0xc154532a188bb25, 259, 2, 8},
	"SPEC-ADG(fallback=-1)/grid64":             {0x37b8018db41a0e93, 433, 385, 32},
	"SPEC-ADG(fallback=-1)/kron":               {0x45d012d21e6ed5dc, 257, 0, 4},
	"SPEC-ADG(fallback=-1)/kron12":             {0x60a1ea3bc731e29, 352, 149, 7},
	"SPEC-ADG(fallback=-1)/ws":                 {0x4784015d08c196d4, 383, 128, 6},
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
	for name, opts := range goldenSpecVariants {
		out[name] = func(g *graph.Graph, cfg harness.Config) golden {
			opts.Procs, opts.Seed, opts.Epsilon = cfg.Procs, cfg.Seed, cfg.Epsilon
			res, err := speculate.Color(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			return golden{hashColors(res.Colors), int64(res.Rounds), res.Conflicts, int64(res.OrderIterations)}
		}
	}
	return out
}

// goldenSpecVariants are SPEC-ADG's paths that its defaults do not
// take: one chunk, where every run falls back to JP-ADG; 16 chunks,
// where more speculation fails and more repairs run; and the fallback
// switched off, where the localized repair fixes every conflict.
var goldenSpecVariants = map[string]speculate.Options{
	"SPEC-ADG(chunks=1)":             {SpecChunks: 1},
	"SPEC-ADG(chunks=16)":            {SpecChunks: 16},
	"SPEC-ADG(fallback=-1)":          {FallbackFraction: -1},
	"SPEC-ADG(chunks=1,fallback=-1)": {SpecChunks: 1, FallbackFraction: -1},
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

// goldenOrdering pins one ADG-family ordering: FNV-64a hashes of its
// Keys, of its Partitions (each partition's length, then its vertices)
// and of its PredCount, and its iteration count.
type goldenOrdering struct {
	keys, partitions, pred uint64
	iterations             int
}

// goldenOrderings was recorded before ADG, ADG-M, ADG-O and ADG-M-O
// shared one peeling loop. The values are the same at every worker
// count.
var goldenOrderings = map[string]goldenOrdering{
	"ADG(0.01)/ba":             {0x5ad807764c7e4278, 0x756c9df19b8fba55, 0xcbf29ce484222325, 6},
	"ADG(0.01)/bipartite":      {0xd44c790435749765, 0x77d80e75fff76b21, 0xcbf29ce484222325, 2},
	"ADG(0.01)/er":             {0xcd9299cfb5a6df7, 0x648c811d9176da1, 0xcbf29ce484222325, 8},
	"ADG(0.01)/grid":           {0xce00a300adf30a5, 0x8cc7fb2ae3c086e5, 0xcbf29ce484222325, 8},
	"ADG(0.01)/grid64":         {0x531e8cf55858c161, 0xbaede605e5fe8e85, 0xcbf29ce484222325, 32},
	"ADG(0.01)/kron":           {0x771eacfe7523a474, 0x89400238418358bf, 0xcbf29ce484222325, 4},
	"ADG(0.01)/kron12":         {0x221a2fc509d34af6, 0x4c9629bd4a8f4cb5, 0xcbf29ce484222325, 7},
	"ADG(0.01)/ws":             {0x8b35d838af8e62c1, 0x230890e6715c4855, 0xcbf29ce484222325, 6},
	"ADG(0.01/12)/ba":          {0x1f8d03805c327c, 0x953a865430560297, 0xcbf29ce484222325, 6},
	"ADG(0.01/12)/bipartite":   {0xd44c790435749765, 0x77d80e75fff76b21, 0xcbf29ce484222325, 2},
	"ADG(0.01/12)/er":          {0xf9b5597879409967, 0x53561b26b6bd9ab5, 0xcbf29ce484222325, 8},
	"ADG(0.01/12)/grid":        {0xce00a300adf30a5, 0x8cc7fb2ae3c086e5, 0xcbf29ce484222325, 8},
	"ADG(0.01/12)/grid64":      {0x531e8cf55858c161, 0xbaede605e5fe8e85, 0xcbf29ce484222325, 32},
	"ADG(0.01/12)/kron":        {0x39744c08f4be65b4, 0xfc6724b7d598ddb3, 0xcbf29ce484222325, 4},
	"ADG(0.01/12)/kron12":      {0xa4c694f0af74906c, 0x5f18a6e3da43b84f, 0xcbf29ce484222325, 7},
	"ADG(0.01/12)/ws":          {0x36e933175f97a824, 0x1c563a0890a2c6eb, 0xcbf29ce484222325, 7},
	"ADG-M-O/ba":               {0x8bb0f94971fd4b3d, 0xcbf29ce484222325, 0x402728d745090a05, 9},
	"ADG-M-O/bipartite":        {0x3da61afea129bcc5, 0xcbf29ce484222325, 0xd9d3121a5a5b8605, 6},
	"ADG-M-O/er":               {0xb88c9ef6eb733dd, 0xcbf29ce484222325, 0x9fe3df918ba2c343, 9},
	"ADG-M-O/grid":             {0x2b697c32aaaed845, 0xcbf29ce484222325, 0x15670b9c90c18b7, 9},
	"ADG-M-O/grid64":           {0xa4f694d776e3ae79, 0xcbf29ce484222325, 0x567efc9a6726427, 13},
	"ADG-M-O/kron":             {0xd354b91146ed6265, 0xcbf29ce484222325, 0xf45d24f1db8b908c, 8},
	"ADG-M-O/kron12":           {0x80ff800c21ec075, 0xcbf29ce484222325, 0x9d73b422f042dfbc, 13},
	"ADG-M-O/ws":               {0x66ecabb8b04c67f9, 0xcbf29ce484222325, 0xbd11fa0c6f6e3372, 9},
	"ADG-M/ba":                 {0x158c6bb1c278fbe9, 0xa3abef226c9fbbb3, 0xcbf29ce484222325, 9},
	"ADG-M/bipartite":          {0xbb578a12aaccaae5, 0x1f1dee63ef3dff3d, 0xcbf29ce484222325, 6},
	"ADG-M/er":                 {0x87b3a2a9d0ecdde0, 0x5a20f47cd4d7293d, 0xcbf29ce484222325, 9},
	"ADG-M/grid":               {0xf2232fe7d5e1f5a, 0x5854b0fe8206bc0b, 0xcbf29ce484222325, 9},
	"ADG-M/grid64":             {0x36931fff02897dee, 0x7bf06af279e5fc76, 0xcbf29ce484222325, 13},
	"ADG-M/kron":               {0x9f7d933c40717bd4, 0xaed448b316e7528b, 0xcbf29ce484222325, 8},
	"ADG-M/kron12":             {0xd404d8d907c2b0e, 0x39b2a064d955519e, 0xcbf29ce484222325, 13},
	"ADG-M/ws":                 {0x9574ae6b7c25dba1, 0xf54f2026a714e91b, 0xcbf29ce484222325, 9},
	"ADG-O(0.01)/ba":           {0x3a90899a1feb0659, 0xcbf29ce484222325, 0x52d917d46f802b7, 6},
	"ADG-O(0.01)/bipartite":    {0x3da61afea129bcc5, 0xcbf29ce484222325, 0xd9d3121a5a5b8605, 2},
	"ADG-O(0.01)/er":           {0x5cd6408f9a954edd, 0xcbf29ce484222325, 0x1e98047df7eb0b73, 8},
	"ADG-O(0.01)/grid":         {0x52e3bf10c0df1485, 0xcbf29ce484222325, 0xb029442ad9802f87, 8},
	"ADG-O(0.01)/grid64":       {0xf87f3b46e5dbc8fd, 0xcbf29ce484222325, 0xbb2cf4d074a59207, 32},
	"ADG-O(0.01)/kron":         {0x6d573492a5827f65, 0xcbf29ce484222325, 0x299a05abc5dd8e60, 4},
	"ADG-O(0.01)/kron12":       {0x98d9f2f7fa2f5619, 0xcbf29ce484222325, 0x502945b8caee63e6, 7},
	"ADG-O(0.01)/ws":           {0x8b2cc22540e1a8e5, 0xcbf29ce484222325, 0xce3013bedd5cbe22, 6},
	"ADG-O(0.01/12)/ba":        {0x72a7a6aa7db71d85, 0xcbf29ce484222325, 0xa39b08831351a891, 6},
	"ADG-O(0.01/12)/bipartite": {0x3da61afea129bcc5, 0xcbf29ce484222325, 0xd9d3121a5a5b8605, 2},
	"ADG-O(0.01/12)/er":        {0x9421944929b68831, 0xcbf29ce484222325, 0x18ecafb776d6e315, 8},
	"ADG-O(0.01/12)/grid":      {0x52e3bf10c0df1485, 0xcbf29ce484222325, 0xb029442ad9802f87, 8},
	"ADG-O(0.01/12)/grid64":    {0xf87f3b46e5dbc8fd, 0xcbf29ce484222325, 0xbb2cf4d074a59207, 32},
	"ADG-O(0.01/12)/kron":      {0x5bbf5486ef3d9205, 0xcbf29ce484222325, 0x9cb08396a2e2be0e, 4},
	"ADG-O(0.01/12)/kron12":    {0x4d027d1507f03091, 0xcbf29ce484222325, 0xb638523c9f169d30, 7},
	"ADG-O(0.01/12)/ws":        {0xc0a632dd41646e05, 0xcbf29ce484222325, 0xa5c8923d973bd7e6, 7},
}

// goldenADGVariants are the ADG family's four variants, the threshold
// ones at JP-ADG's ε and at DEC-ADG's ε/12.
var goldenADGVariants = map[string]order.ADGOptions{
	"ADG(0.01)":      {Epsilon: 0.01},
	"ADG(0.01/12)":   {Epsilon: 0.01 / 12},
	"ADG-M":          {Median: true},
	"ADG-O(0.01)":    {Epsilon: 0.01, Sorted: true},
	"ADG-O(0.01/12)": {Epsilon: 0.01 / 12, Sorted: true},
	"ADG-M-O":        {Median: true, Sorted: true},
}

func hashOrdering(o *order.Ordering) goldenOrdering {
	keys, parts, pred := fnv.New64a(), fnv.New64a(), fnv.New64a()
	var b [8]byte
	for _, k := range o.Keys {
		binary.LittleEndian.PutUint64(b[:], k)
		keys.Write(b[:])
	}
	for _, part := range o.Partitions {
		binary.LittleEndian.PutUint32(b[:4], uint32(len(part)))
		parts.Write(b[:4])
		for _, v := range part {
			binary.LittleEndian.PutUint32(b[:4], v)
			parts.Write(b[:4])
		}
	}
	for _, c := range o.PredCount {
		binary.LittleEndian.PutUint32(b[:4], uint32(c))
		pred.Write(b[:4])
	}
	return goldenOrdering{keys.Sum64(), parts.Sum64(), pred.Sum64(), o.Iterations}
}

// TestGoldenOrderings runs every ADG variant on every golden graph at
// p ∈ {1, 2, 8} and compares each ordering with its recorded value.
func TestGoldenOrderings(t *testing.T) {
	for _, fam := range goldenGraphs(t) {
		for name, opts := range goldenADGVariants {
			key := name + "/" + fam.Name
			want, ok := goldenOrderings[key]
			for _, p := range []int{1, 2, 8} {
				opts.Procs, opts.Seed = p, 7
				got := hashOrdering(order.ADG(fam.G, opts))
				if !ok || got != want {
					t.Errorf("%s at p=%d: got {%#x, %#x, %#x, %d}, recorded %#v",
						key, p, got.keys, got.partitions, got.pred, got.iterations, want)
				}
			}
		}
	}
}

// goldenBaselines pins the colorings of the Greedy and speculative
// baselines, keyed by algorithm and graph, and for ITRB also by worker
// count, because its batch size depends on p. GM runs at p = 1 only,
// because its phase 1 races at p > 1. The values were recorded before
// the smallest-free-color loops became one kernel.
var goldenBaselines = map[string]golden{
	"GM/ba":               {0xb9d7fd2e1ac000f2, 1, 0, 0},
	"GM/bipartite":        {0x68f3ca1559d0dcb5, 1, 0, 0},
	"GM/er":               {0xa1994458732df8f4, 1, 0, 0},
	"GM/grid":             {0x9b00d6e1cac8bb25, 1, 0, 0},
	"GM/grid64":           {0x6042de83408ba325, 1, 0, 0},
	"GM/kron":             {0x45429806019f5386, 1, 0, 0},
	"GM/kron12":           {0xb9c6631edfcd6a21, 1, 0, 0},
	"GM/ws":               {0x4ccd89fb8611e9e4, 1, 0, 0},
	"Greedy-ID/ba":        {0x937361dea7724b4, 0, 0, 0},
	"Greedy-ID/bipartite": {0x9a69f53907838dd5, 0, 0, 0},
	"Greedy-ID/er":        {0xacb064b59c0e84f7, 0, 0, 0},
	"Greedy-ID/grid":      {0x9b00d6e1cac8bb25, 0, 0, 0},
	"Greedy-ID/grid64":    {0x6042de83408ba325, 0, 0, 0},
	"Greedy-ID/kron":      {0xd6aef63ba20cea41, 0, 0, 0},
	"Greedy-ID/kron12":    {0x80d861b9c7bdb9a7, 0, 0, 0},
	"Greedy-ID/ws":        {0x43b4681af2523fa2, 0, 0, 0},
	"Greedy-SD/ba":        {0xabfbd9c04bb11, 0, 0, 0},
	"Greedy-SD/bipartite": {0x9a69f53907838dd5, 0, 0, 0},
	"Greedy-SD/er":        {0xa6ff1b6b36b63085, 0, 0, 0},
	"Greedy-SD/grid":      {0x9b00d6e1cac8bb25, 0, 0, 0},
	"Greedy-SD/grid64":    {0x6042de83408ba325, 0, 0, 0},
	"Greedy-SD/kron":      {0x3166fa0fadb0c96b, 0, 0, 0},
	"Greedy-SD/kron12":    {0xe2adb037bc41bdd8, 0, 0, 0},
	"Greedy-SD/ws":        {0xbd5fefaa9c4c836, 0, 0, 0},
	"ITR/ba":              {0x42740893a1203528, 9, 578, 0},
	"ITR/bipartite":       {0x9a69f53907838dd5, 2, 38, 0},
	"ITR/er":              {0xbfff27b848430c01, 7, 869, 0},
	"ITR/grid":            {0x69e7a6fe6857ef10, 4, 308, 0},
	"ITR/grid64":          {0x61e134f15b659ba3, 6, 5101, 0},
	"ITR/kron":            {0x5ed4cc0b6bae656c, 11, 280, 0},
	"ITR/kron12":          {0xeb2a2b26b82b16fe, 36, 8194, 0},
	"ITR/ws":              {0x80700edf178c6ae1, 6, 632, 0},
	"ITRB/ba/p=1":         {0x1eaea2abb492ecae, 6, 193, 0},
	"ITRB/ba/p=2":         {0x142d262a10336c8d, 6, 100, 0},
	"ITRB/ba/p=8":         {0x783a39a6ee531d40, 5, 31, 0},
	"ITRB/bipartite/p=1":  {0x68f3ca1559d0dcb5, 2, 1, 0},
	"ITRB/bipartite/p=2":  {0x68f3ca1559d0dcb5, 1, 0, 0},
	"ITRB/bipartite/p=8":  {0x68f3ca1559d0dcb5, 1, 0, 0},
	"ITRB/er/p=1":         {0x995afe563be418c1, 4, 199, 0},
	"ITRB/er/p=2":         {0xcc32c6e4470be834, 3, 65, 0},
	"ITRB/er/p=8":         {0xf8defc2694c82b0, 2, 15, 0},
	"ITRB/grid/p=1":       {0xfaa5c49cfc6fdf65, 4, 247, 0},
	"ITRB/grid/p=2":       {0x5f9f7397a4a03f07, 4, 199, 0},
	"ITRB/grid/p=8":       {0x47e52df6f2451423, 3, 119, 0},
	"ITRB/grid64/p=1":     {0x6ad93e24c9adcc80, 6, 4802, 0},
	"ITRB/grid64/p=2":     {0xb93d61d3ac4e93c0, 5, 4378, 0},
	"ITRB/grid64/p=8":     {0x3fca4d79e53acbe0, 5, 3198, 0},
	"ITRB/kron/p=1":       {0xd82e7fba887aec8f, 8, 89, 0},
	"ITRB/kron/p=2":       {0xb4321330128174fd, 6, 35, 0},
	"ITRB/kron/p=8":       {0x682e03671da99606, 3, 4, 0},
	"ITRB/kron12/p=1":     {0x3a88d6b24fd79dca, 34, 3907, 0},
	"ITRB/kron12/p=2":     {0x4415e59185aa709c, 31, 2343, 0},
	"ITRB/kron12/p=8":     {0xe3bf0a2e161e8419, 13, 166, 0},
	"ITRB/ws/p=1":         {0x9ae2c6ceaccaf171, 5, 370, 0},
	"ITRB/ws/p=2":         {0x4d48728be6a6e670, 5, 356, 0},
	"ITRB/ws/p=8":         {0x6a07f10570b520a0, 5, 300, 0},
}

// goldenBaselineProcs lists the worker counts each baseline is pinned at.
var goldenBaselineProcs = map[string][]int{
	"Greedy-ID": {1, 2, 8},
	"Greedy-SD": {1, 2, 8},
	"ITR":       {1, 2, 8},
	"ITRB":      {1, 2, 8},
	"GM":        {1},
}

// TestGoldenBaselines runs each baseline on every golden graph at its
// worker counts and compares each run with its recorded value.
func TestGoldenBaselines(t *testing.T) {
	for _, fam := range goldenGraphs(t) {
		for name, procs := range goldenBaselineProcs {
			a, err := harness.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range procs {
				key := name + "/" + fam.Name
				if name == "ITRB" {
					key += fmt.Sprintf("/p=%d", p)
				}
				res, err := harness.RunChecked(a, fam.G, harness.Config{Procs: p, Seed: 7, Epsilon: 0.01})
				if err != nil {
					t.Fatal(err)
				}
				got := golden{hashColors(res.Colors), int64(res.Rounds), res.Conflicts, int64(res.OrderIterations)}
				if want, ok := goldenBaselines[key]; !ok || got != want {
					t.Errorf("%s: got {%#x, %d, %d, %d}, recorded %#v",
						key, got.hash, got.rounds, got.conflicts, got.iterations, want)
				}
			}
		}
	}
}

// goldenRecolored pins recolor.IteratedGreedy from a Greedy-R coloring
// (seed 7) under each strategy: the hash of the result, its color count
// and its pass count.
var goldenRecolored = map[string][3]uint64{
	"largest-first/ba":        {0x35bf90f3dd52ce2c, 9, 1},
	"largest-first/bipartite": {0x9a69f53907838dd5, 2, 1},
	"largest-first/er":        {0x3de89d02770c5d3b, 8, 1},
	"largest-first/grid":      {0xe91d4e37f46c5e07, 4, 1},
	"largest-first/grid64":    {0xdae1e0073e8ca484, 5, 1},
	"largest-first/kron":      {0x2ea7115bbc0a9876, 11, 1},
	"largest-first/kron12":    {0x5d6d36aed92c1357, 37, 1},
	"largest-first/ws":        {0x150102f90dd0d310, 6, 1},
	"random/ba":               {0xb7cb55e38f11e34, 6, 8},
	"random/bipartite":        {0x68f3ca1559d0dcb5, 2, 8},
	"random/er":               {0x9b10d898e8481263, 6, 8},
	"random/grid":             {0x51c7ebf8cb812877, 4, 8},
	"random/grid64":           {0xab2fe6ae25148f6, 4, 8},
	"random/kron":             {0x3357ad4edaced6a4, 10, 8},
	"random/kron12":           {0xe2bac5bab4aa57ee, 27, 8},
	"random/ws":               {0xa55ece5e6bb3d1c6, 5, 8},
	"reverse/ba":              {0xf11da1cfd50fe266, 7, 2},
	"reverse/bipartite":       {0x68f3ca1559d0dcb5, 2, 1},
	"reverse/er":              {0xe4afcab410acd837, 6, 2},
	"reverse/grid":            {0xa4bbc4aa34a67254, 4, 1},
	"reverse/grid64":          {0xcdfd0cf774517544, 4, 2},
	"reverse/kron":            {0xc9946e76d2de8ae5, 11, 1},
	"reverse/kron12":          {0x5b8fca00c390f6da, 29, 3},
	"reverse/ws":              {0x7f9f133179aec02, 6, 1},
}

var goldenStrategies = map[string]recolor.Strategy{
	"reverse":       recolor.ReverseOrder,
	"largest-first": recolor.LargestFirstOrder,
	"random":        recolor.RandomOrder,
}

// TestGoldenRecolor runs 8 passes of each strategy on every golden graph
// and compares each result with its recorded value.
func TestGoldenRecolor(t *testing.T) {
	for _, fam := range goldenGraphs(t) {
		base := greedy.R(fam.G, 7).Colors
		for name, s := range goldenStrategies {
			key := name + "/" + fam.Name
			res, err := recolor.IteratedGreedy(fam.G, base, s, 8, 7)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]uint64{hashColors(res.Colors), uint64(res.NumColors), uint64(res.Passes)}
			if want, ok := goldenRecolored[key]; !ok || got != want {
				t.Errorf("%s: got {%#x, %d, %d}, recorded %v", key, got[0], got[1], got[2], want)
			}
		}
	}
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
