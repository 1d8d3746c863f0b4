package service

import (
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/verify"
	"repro/internal/xrand"
)

func mutate(t *testing.T, tsURL, name string, req MutateRequest) (*http.Response, MutateResponse) {
	t.Helper()
	resp, body := postJSON(t, tsURL+"/v1/graphs/"+name+"/mutate", req)
	var mr MutateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatalf("mutate response: %v (%s)", err, body)
		}
	}
	return resp, mr
}

func colorReq(t *testing.T, tsURL string, req ColorRequest) (*http.Response, ColorResponse) {
	t.Helper()
	resp, body := postJSON(t, tsURL+"/v1/color", req)
	var cr ColorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatalf("color response: %v (%s)", err, body)
		}
	}
	return resp, cr
}

func TestMutateEndpoint(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 16})
	addSpecGraph(t, ts, "g", "grid:8:8")

	// Insert an edge between two same-colored vertices of the grid's
	// 2-coloring: (0,0)-(1,1) are both even parity, guaranteed conflict.
	resp, mr := mutate(t, ts.URL, "g", MutateRequest{
		AddEdges:      [][2]uint32{{0, 9}},
		IncludeColors: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate status %d", resp.StatusCode)
	}
	if mr.Version != 1 || mr.AddedEdges != 1 || mr.N != 64 || mr.M != 113 {
		t.Fatalf("mutate response %+v", mr)
	}
	if len(mr.Colors) != 64 {
		t.Fatalf("includeColors returned %d colors", len(mr.Colors))
	}
	// The maintained coloring must be proper on the mutated graph.
	entry, err := s.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	g, ver, err := entry.View()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 {
		t.Fatalf("entry version %d", ver)
	}
	if err := verify.CheckProper(g, mr.Colors); err != nil {
		t.Fatal(err)
	}

	// GET /v1/graphs/{id} reflects the mutation.
	get, err := http.Get(ts.URL + "/v1/graphs/g")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var info graphInfo
	if err := json.NewDecoder(get.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.M != 113 {
		t.Fatalf("graph info %+v", info)
	}
}

func TestMutateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 1, CacheEntries: 4})
	addSpecGraph(t, ts, "g", "grid:4:4")

	// Unknown graph.
	if resp, _ := mutate(t, ts.URL, "nope", MutateRequest{AddEdges: [][2]uint32{{0, 1}}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", resp.StatusCode)
	}
	// Out-of-range edge.
	if resp, _ := mutate(t, ts.URL, "g", MutateRequest{AddEdges: [][2]uint32{{0, 99}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range edge: status %d", resp.StatusCode)
	}
	// Wrong method.
	r, err := http.Get(ts.URL + "/v1/graphs/g/mutate")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET mutate: status %d", r.StatusCode)
	}
	// Unknown subpath.
	rr, err := http.Get(ts.URL + "/v1/graphs/g/bogus")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus subpath: status %d", rr.StatusCode)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/graphs/g/mutate", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d", resp.StatusCode)
	}
}

// TestMutateInvalidatesCache is the stale-cache guard: a coloring
// cached before a mutation must never be served after it — the version
// key and the explicit purge both enforce it.
func TestMutateInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 16})
	addSpecGraph(t, ts, "g", "er:128:512:3")

	req := ColorRequest{Graph: "g", Algorithm: "JP-ADG", Seed: 1, IncludeColors: true}
	_, first := colorReq(t, ts.URL, req)
	if first.GraphVersion != 0 || first.Cached {
		t.Fatalf("first color: %+v", first)
	}
	_, second := colorReq(t, ts.URL, req)
	if !second.Cached || second.GraphVersion != 0 {
		t.Fatalf("second color should be a version-0 cache hit: cached=%v v=%d", second.Cached, second.GraphVersion)
	}

	// Mutate: insert edges between same-colored vertices so the graph
	// actually changes shape for the old coloring.
	var conflict [2]uint32
	found := false
	entry, _ := s.Registry().Get("g")
	for u := 0; u < len(first.Colors) && !found; u++ {
		for v := u + 1; v < len(first.Colors); v++ {
			if first.Colors[u] == first.Colors[v] && !entry.G.HasEdge(uint32(u), uint32(v)) {
				conflict = [2]uint32{uint32(u), uint32(v)}
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no monochromatic non-edge")
	}
	_, mr := mutate(t, ts.URL, "g", MutateRequest{AddEdges: [][2]uint32{conflict}})
	if mr.Version != 1 {
		t.Fatalf("mutate version %d", mr.Version)
	}
	if s.SnapshotMetrics().CacheInvalidations == 0 {
		t.Fatal("mutation purged no cache entries")
	}

	// The same color request now runs against version 1: it must not be
	// served from the stale entry, and its result must be proper on the
	// mutated graph — in particular the inserted edge must not be
	// monochromatic, which the stale coloring would make it.
	_, third := colorReq(t, ts.URL, req)
	if third.GraphVersion != 1 {
		t.Fatalf("post-mutation color ran against version %d", third.GraphVersion)
	}
	if third.Cached {
		t.Fatal("post-mutation color was served from cache")
	}
	g, _, err := entry.View()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckProper(g, third.Colors); err != nil {
		t.Fatal(err)
	}
	if third.Colors[conflict[0]] == third.Colors[conflict[1]] {
		t.Fatal("inserted edge is monochromatic: stale coloring leaked across the mutation")
	}

	// And the fresh result is itself cacheable under the new version.
	_, fourth := colorReq(t, ts.URL, req)
	if !fourth.Cached || fourth.GraphVersion != 1 {
		t.Fatalf("version-1 result not cached: %+v", fourth)
	}
}

// TestNoOpMutateKeepsCache: a batch that materializes nothing keeps
// the version, and must also keep the (still valid) cached colorings
// of the current version.
func TestNoOpMutateKeepsCache(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "g", "grid:6:6")

	req := ColorRequest{Graph: "g", Algorithm: "JP-ADG", Seed: 2}
	colorReq(t, ts.URL, req)

	// Edge {0,1} already exists in the grid: pure no-op.
	resp, mr := mutate(t, ts.URL, "g", MutateRequest{AddEdges: [][2]uint32{{0, 1}}})
	if resp.StatusCode != http.StatusOK || mr.Version != 0 || mr.AddedEdges != 0 {
		t.Fatalf("no-op mutate: status %d, response %+v", resp.StatusCode, mr)
	}
	_, second := colorReq(t, ts.URL, req)
	if !second.Cached || second.GraphVersion != 0 {
		t.Fatalf("no-op mutate evicted a valid cache entry: %+v", second)
	}
	if inv := s.SnapshotMetrics().CacheInvalidations; inv != 0 {
		t.Fatalf("no-op mutate invalidated %d entries", inv)
	}
}

// TestConcurrentColorMutateRace drives /v1/color and /v1/graphs/{id}/
// mutate concurrently on one graph (run under -race via the Makefile
// race target). It asserts version-key monotonicity — mutation versions
// strictly increase, and a color request issued after a mutation
// completed can never observe an older version (no stale cache hit
// crosses a mutation) — and verifies every returned coloring against a
// client-side replica of the exact version the server reports.
func TestConcurrentColorMutateRace(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 4, CacheEntries: 32})
	addSpecGraph(t, ts, "g", "er:200:800:7")

	base, err := BuildSpec("er:200:800:7")
	if err != nil {
		t.Fatal(err)
	}

	const mutations = 20
	var (
		mu       sync.Mutex
		replicas = map[uint64]*graph.Graph{0: base}
		latest   atomic.Uint64
		done     atomic.Bool
	)

	var wg sync.WaitGroup
	// Mutator: serialized batches, replayed on a local overlay.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		ov := dynamic.NewOverlay(base)
		rng := xrand.New(55)
		for i := 0; i < mutations; i++ {
			req := MutateRequest{}
			for j := 0; j < 6; j++ {
				u := uint32(rng.Intn(200))
				v := uint32(rng.Intn(200))
				if rng.Intn(3) == 0 {
					req.DelEdges = append(req.DelEdges, [2]uint32{u, v})
				} else {
					req.AddEdges = append(req.AddEdges, [2]uint32{u, v})
				}
			}
			resp, mr := mutate(t, ts.URL, "g", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("mutate %d: status %d", i, resp.StatusCode)
				return
			}
			b := dynamic.Batch{}
			for _, e := range req.DelEdges {
				b.DelEdges = append(b.DelEdges, graph.Edge{U: e[0], V: e[1]})
			}
			for _, e := range req.AddEdges {
				b.AddEdges = append(b.AddEdges, graph.Edge{U: e[0], V: e[1]})
			}
			if _, err := ov.Apply(b); err != nil {
				t.Errorf("local replay: %v", err)
				return
			}
			if ov.Version() != mr.Version {
				t.Errorf("mutate %d: server version %d, replay %d", i, mr.Version, ov.Version())
				return
			}
			// Strict monotonicity: versions only move forward (a no-op
			// batch keeps the version; these random batches always
			// materialize something, which the replay equality above
			// already pins).
			if mr.Version < latest.Load() {
				t.Errorf("mutate %d: version went backwards (%d after %d)", i, mr.Version, latest.Load())
				return
			}
			snap, err := ov.Snapshot(1)
			if err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			mu.Lock()
			replicas[mr.Version] = snap
			mu.Unlock()
			latest.Store(mr.Version)
		}
	}()

	// Colorers: hammer /v1/color and verify each response against the
	// replica of its reported version.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := uint64(w)
			for i := 0; !done.Load() || i < 5; i++ {
				floor := latest.Load()
				resp, cr := colorReq(t, ts.URL, ColorRequest{
					Graph: "g", Algorithm: "JP-ADG", Seed: seed, IncludeColors: true,
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("color: status %d", resp.StatusCode)
					return
				}
				if cr.GraphVersion < floor {
					t.Errorf("color observed version %d after mutation %d completed: stale cache hit crossed a mutation",
						cr.GraphVersion, floor)
					return
				}
				// The server applies a batch before the mutate response
				// reaches the mutator goroutine, so a color response can
				// report version V a beat before replicas[V] is stored:
				// wait for the mutator to catch up.
				var replica *graph.Graph
				for tries := 0; tries < 2000; tries++ {
					mu.Lock()
					replica = replicas[cr.GraphVersion]
					mu.Unlock()
					if replica != nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if replica == nil {
					t.Errorf("no replica for version %d", cr.GraphVersion)
					return
				}
				if err := verify.CheckProper(replica, cr.Colors); err != nil {
					t.Errorf("version %d coloring improper: %v", cr.GraphVersion, err)
					return
				}
				if i >= 200 {
					break
				}
			}
		}(w)
	}
	wg.Wait()
}

// mutateRequestPlain mirrors MutateRequest with the edge lists as plain
// [][2]uint32, decoded by encoding/json alone.
type mutateRequestPlain struct {
	AddVertices   int         `json:"addVertices"`
	DelVertices   []uint32    `json:"delVertices"`
	AddEdges      [][2]uint32 `json:"addEdges"`
	DelEdges      [][2]uint32 `json:"delEdges"`
	IncludeColors bool        `json:"includeColors"`
}

// FuzzMutateRequestDecode is the differential check of EdgePairs'
// decoder: for any b, the body b and the body that sets addEdges twice,
// the second time to b (so the decode starts from the slice the first
// key left), must decode into MutateRequest exactly as into the plain
// mirror: both succeed with the same fields, or both fail. b is also
// handed to UnmarshalJSON directly, past encoding/json's syntax check,
// and must decode as encoding/json decodes it into [][2]uint32.
func FuzzMutateRequestDecode(f *testing.F) {
	for _, b := range []string{
		`null`, `[]`, `[[1,2],null]`, `[[1]]`, `[[1,2,3]]`, `[[-1,2]]`, `[[1.5,2]]`,
		`[[1e2,3]]`, `[[4294967296,1]]`, `[["1",2]]`, "[ [ 1 ,\t2 ] ,\r\n[0, 4294967295]\n]",
		`[[01,2]]`, `[[1,2]`, `{"addEdges":[],"delEdges":[[3,4]],"addVertices":2}`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var direct EdgePairs
		var plainPairs [][2]uint32
		gotErr, wantErr := direct.UnmarshalJSON(b), json.Unmarshal(b, &plainPairs)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual([][2]uint32(direct), plainPairs) {
			t.Fatalf("%q: UnmarshalJSON gave %v (err %v), encoding/json %v (err %v)", b, direct, gotErr, plainPairs, wantErr)
		}
		twice := append(append([]byte(`{"addEdges":[[9,9]],"addEdges":`), b...), '}')
		for _, body := range [][]byte{b, twice} {
			var got MutateRequest
			var want mutateRequestPlain
			gotErr := json.Unmarshal(body, &got)
			wantErr := json.Unmarshal(body, &want)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("body %q: EdgePairs err %v, encoding/json err %v", body, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			plain := mutateRequestPlain{got.AddVertices, got.DelVertices, got.AddEdges, got.DelEdges, got.IncludeColors}
			if !reflect.DeepEqual(plain, want) {
				t.Fatalf("body %q: EdgePairs decoded %+v, encoding/json %+v", body, plain, want)
			}
		}
	})
}
