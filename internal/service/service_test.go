package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/verify"
)

func newTestServer(t *testing.T, cfg ManagerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func addSpecGraph(t *testing.T, ts *httptest.Server, name, spec string) {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/graphs", graphUploadRequest{Name: name, Spec: spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload %s=%s: status %d: %s", name, spec, resp.StatusCode, body)
	}
}

func TestGraphUploadSpecAndList(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "k8", "kron:8")

	// Idempotent re-registration of the same spec succeeds.
	addSpecGraph(t, ts, "k8", "kron:8")

	// Same name, different spec conflicts.
	resp, _ := postJSON(t, ts.URL+"/v1/graphs", graphUploadRequest{Name: "k8", Spec: "kron:9"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-registration: status %d, want 409", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var listed struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(get.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Graphs) != 1 || listed.Graphs[0].Name != "k8" || listed.Graphs[0].N != 256 {
		t.Fatalf("list = %+v", listed.Graphs)
	}
}

func TestGraphUploadInlineFormats(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	cases := []graphUploadRequest{
		{Name: "el", Format: "edgelist", Data: "0 1\n1 2\n2 0\n"},
		{Name: "di", Format: "dimacs", Data: "p edge 3 3\ne 1 2\ne 2 3\ne 3 1\n"},
		{Name: "mm", Format: "mm", Data: "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 2\n2 3\n3 1\n"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/graphs", c)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.Name, resp.StatusCode, body)
		}
		var info graphInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.N != 3 || info.M != 3 {
			t.Fatalf("%s: n=%d m=%d, want triangle", c.Name, info.N, info.M)
		}
	}

	// Bad payloads map to 400.
	for _, c := range []graphUploadRequest{
		{Name: "bad1", Format: "dimacs", Data: "e 1 2\n"},
		{Name: "bad2", Format: "nope", Data: "0 1\n"},
		{Name: "bad3", Spec: "kron:0"},
		{Name: "bad4", Spec: "warp:9"},
		{Name: "", Spec: "kron:8"},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/graphs", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status %d, want 400", c, resp.StatusCode)
		}
	}
}

func TestColorBadRequests(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "k8", "kron:8")

	resp, _ := postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "k8", Algorithm: "JP-WARP"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "nope", Algorithm: "JP-ADG"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", resp.StatusCode)
	}
	r, err := http.Post(ts.URL+"/v1/color", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", r.StatusCode)
	}
}

func TestColorVerifiedAndCached(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "k9", "kron:9")

	req := ColorRequest{Graph: "k9", Algorithm: "JP-ADG", Seed: 7, IncludeColors: true}
	resp, body := postJSON(t, ts.URL+"/v1/color", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("color: status %d: %s", resp.StatusCode, body)
	}
	var first ColorResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || !first.Verified || first.NumColors < 1 {
		t.Fatalf("first response: %+v", first)
	}
	// The returned coloring is proper on the registry's graph.
	ge, err := s.Registry().Get("k9")
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckProper(ge.G, first.Colors); err != nil {
		t.Fatalf("returned coloring not proper: %v", err)
	}

	// An identical request hits the cache and returns identical colors.
	resp, body = postJSON(t, ts.URL+"/v1/color", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d", resp.StatusCode)
	}
	var second ColorResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("repeat response not cached: %+v", second)
	}
	if len(second.Colors) != len(first.Colors) {
		t.Fatal("cached colors length mismatch")
	}
	for i := range first.Colors {
		if first.Colors[i] != second.Colors[i] {
			t.Fatalf("cached colors diverge at %d", i)
		}
	}

	// Different seed is a different key: a fresh computation.
	req.Seed = 8
	_, body = postJSON(t, ts.URL+"/v1/color", req)
	var third ColorResponse
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different seed must not hit the cache")
	}
}

func TestColorProcsSharesCacheKey(t *testing.T) {
	s := NewServer(ManagerConfig{MaxInflight: 4, CacheEntries: 8})
	g, err := BuildSpec("kron:9")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("k9", "kron:9", g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r1, err := s.Manager().Color(ctx, ColorRequest{Graph: "k9", Algorithm: "DEC-ADG-ITR", Seed: 3, Procs: 1, IncludeColors: true})
	if err != nil {
		t.Fatal(err)
	}
	// Las Vegas determinism: p=4 must serve the p=1 result from cache.
	r2, err := s.Manager().Color(ctx, ColorRequest{Graph: "k9", Algorithm: "DEC-ADG-ITR", Seed: 3, Procs: 4, IncludeColors: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatalf("p=4 request missed the cache: %+v", r2)
	}
	for i := range r1.Colors {
		if r1.Colors[i] != r2.Colors[i] {
			t.Fatalf("colors diverge at %d", i)
		}
	}
}

// TestFairShareProcs pins the worker count a run gets, read back from
// the colord_job_runs_total{procs} counter in both /metrics formats: a
// lone run without procs gets GOMAXPROCS workers, a run started while
// another holds a slot gets GOMAXPROCS divided by the two, and an
// explicit procs is honored whatever else runs.
func TestFairShareProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 4, CacheEntries: 8})
	addSpecGraph(t, ts, "k8", "kron:8")
	color := func(procs int) {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "k8", Algorithm: "JP-ADG", Seed: 1, Procs: procs, NoCache: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("color: %d %s", resp.StatusCode, body)
		}
	}
	runs := func() map[string]int64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m Metrics
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m.Jobs.RunsByProcs
	}

	color(0)
	if got := runs(); !maps.Equal(got, map[string]int64{"4": 1}) {
		t.Fatalf("lone run: runs by procs %v, want one run at 4", got)
	}
	// Another run holds a slot.
	s.Manager().sem <- struct{}{}
	color(0)
	color(3)
	<-s.Manager().sem
	want := map[string]int64{"4": 1, "2": 1, "3": 1}
	if got := runs(); !maps.Equal(got, want) {
		t.Fatalf("runs by procs %v, want %v", got, want)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for procs, n := range want {
		line := fmt.Sprintf("colord_job_runs_total{procs=%q} %d\n", procs, n)
		if !strings.Contains(string(body), line) {
			t.Fatalf("prom exposition lacks %q", line)
		}
	}
}

// TestCancelledRequestFreesSlot is the wedge test: with a single worker
// slot, a request cancelled mid-run (or while queued) must release the
// slot so later requests still complete.
func TestCancelledRequestFreesSlot(t *testing.T) {
	s := NewServer(ManagerConfig{MaxInflight: 1, CacheEntries: 8})
	// Big enough that a JP-ADG run takes many rounds (cancellation
	// preemption points) and measurably long.
	g, err := BuildSpec("kron:15:16")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("big", "kron:15:16", g); err != nil {
		t.Fatal(err)
	}
	small, err := BuildSpec("kron:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("small", "kron:8", small); err != nil {
		t.Fatal(err)
	}
	mgr := s.Manager()

	// Mid-run cancellation: a 1ms deadline on a run that takes far
	// longer. NoCache so it cannot be served or coalesced.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = mgr.Color(ctx, ColorRequest{Graph: "big", Algorithm: "JP-ADG", Seed: 1, NoCache: true})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled run returned after %v — not cooperative", elapsed)
	}

	// Queued cancellation: hold the only slot directly, then cancel a
	// queued request; it must return promptly without ever acquiring the
	// slot.
	mgr.sem <- struct{}{}
	qCtx, qCancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := mgr.Color(qCtx, ColorRequest{Graph: "small", Algorithm: "JP-ADG", Seed: 3, NoCache: true})
		queued <- err
	}()
	time.Sleep(10 * time.Millisecond)
	qCancel()
	select {
	case err := <-queued:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("queued cancel: want ErrCancelled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request did not observe cancellation")
	}

	// Release the slot; it must come back and serve new work.
	<-mgr.sem
	r, err := mgr.Color(context.Background(), ColorRequest{Graph: "small", Algorithm: "JP-ADG", Seed: 4})
	if err != nil {
		t.Fatalf("server wedged after cancellations: %v", err)
	}
	if !r.Verified {
		t.Fatal("post-cancel run not verified")
	}
	if got := mgr.Stats().Inflight; got != 0 {
		t.Fatalf("inflight = %d after all runs returned", got)
	}
}

// TestConcurrentRequestsOneGraph hammers one registered graph from many
// goroutines across algorithms and seeds — the race-detector target —
// and checks every result against the shared CSR.
func TestConcurrentRequestsOneGraph(t *testing.T) {
	s := NewServer(ManagerConfig{MaxInflight: 4, CacheEntries: 16})
	g, err := BuildSpec("kron:10")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("k10", "kron:10", g); err != nil {
		t.Fatal(err)
	}
	mgr := s.Manager()
	algos := []string{"JP-ADG", "JP-LLF", "DEC-ADG-ITR", "ITR"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := ColorRequest{
				Graph:         "k10",
				Algorithm:     algos[i%len(algos)],
				Seed:          uint64(i % 4),
				IncludeColors: true,
			}
			resp, err := mgr.Color(context.Background(), req)
			if err != nil {
				errs <- err
				return
			}
			if err := verify.CheckProper(g, resp.Colors); err != nil {
				errs <- fmt.Errorf("%s seed %d: %v", req.Algorithm, req.Seed, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cs := mgr.Cache().Stats()
	st := mgr.Stats()
	// All 4 algorithms are deterministic: 4 algorithms × 4 seeds = 16
	// cacheable keys across 32 requests, each of which was a hit, a
	// coalesced wait, or a miss.
	if got := cs.Hits + st.Coalesced + cs.Misses; got < 32 {
		t.Fatalf("lookups %d < cacheable requests 32 (stats %+v / %+v)", got, cs, st)
	}
	if cs.Entries == 0 || cs.Entries > 16 {
		t.Fatalf("cache entries = %d, want 1..16", cs.Entries)
	}
}

// TestITRRequestIsCached: ITR is deterministic (its tentative pass
// reads only colors the previous round fixed), so a repeated request
// is a cache hit with the identical coloring, whatever procs it asks.
func TestITRRequestIsCached(t *testing.T) {
	s := NewServer(ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	g, err := BuildSpec("kron:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("k8", "kron:8", g); err != nil {
		t.Fatal(err)
	}
	first, err := s.Manager().Color(context.Background(), ColorRequest{Graph: "k8", Algorithm: "ITR", Seed: 3, Procs: 1, IncludeColors: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !first.Deterministic {
		t.Fatalf("first ITR response %+v: want a fresh run flagged deterministic", first)
	}
	again, err := s.Manager().Color(context.Background(), ColorRequest{Graph: "k8", Algorithm: "ITR", Seed: 3, Procs: 4, IncludeColors: true})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatalf("repeated ITR response %+v: want cached", again)
	}
	fresh, err := s.Manager().Color(context.Background(), ColorRequest{Graph: "k8", Algorithm: "ITR", Seed: 3, Procs: 4, IncludeColors: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || !slices.Equal(again.Colors, first.Colors) || !slices.Equal(fresh.Colors, first.Colors) {
		t.Fatal("ITR colorings differ between the p=1 run, its cached copy and a fresh p=4 run")
	}
}

// TestNonDeterministicNeverCached: the schemes without the strong
// determinism guarantee must compute fresh every time — no cache hits,
// no coalescing — and say so in the response.
func TestNonDeterministicNeverCached(t *testing.T) {
	s := NewServer(ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	g, err := BuildSpec("kron:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("k8", "kron:8", g); err != nil {
		t.Fatal(err)
	}
	req := ColorRequest{Graph: "k8", Algorithm: "ITRB", Seed: 1, IncludeColors: true}
	for i := 0; i < 2; i++ {
		r, err := s.Manager().Color(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached || r.Coalesced || r.Deterministic {
			t.Fatalf("run %d: ITRB response %+v — must be fresh and flagged non-deterministic", i, r)
		}
		if err := verify.CheckProper(g, r.Colors); err != nil {
			t.Fatal(err)
		}
	}
	if cs := s.Manager().Cache().Stats(); cs.Entries != 0 || cs.Hits != 0 {
		t.Fatalf("non-deterministic run touched the cache: %+v", cs)
	}
	// A deterministic scheme on the same server still caches.
	det, err := s.Manager().Color(context.Background(), ColorRequest{Graph: "k8", Algorithm: "JP-ADG", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Deterministic {
		t.Fatalf("JP-ADG not flagged deterministic: %+v", det)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	k := func(i int) Key { return Key{Graph: "g", Algorithm: "A", Seed: uint64(i)} }
	c.Put(k(1), &Entry{NumColors: 1})
	c.Put(k(2), &Entry{NumColors: 2})
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 evicted too early")
	}
	// k2 is now LRU; inserting k3 evicts it.
	c.Put(k(3), &Entry{NumColors: 3})
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("k2 survived past capacity")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 (recently used) evicted")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "k8", "kron:8")
	// Procs 2 so the pool's scheduling counters move even on a one-core
	// host (p=1 runs entirely inline and skips the counters).
	if _, body := postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "k8", Algorithm: "JP-ADG", Procs: 2}); len(body) == 0 {
		t.Fatal("empty color response")
	}
	postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "k8", Algorithm: "JP-ADG", Procs: 2})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.ColorRequests != 2 || m.Graphs != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache stats: %+v", m.Cache)
	}
	if m.CacheHitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", m.CacheHitRate)
	}
	// The run went through the persistent pool: its counters moved.
	if m.Pool.Forks == 0 && m.Pool.SeqCutoffHits == 0 {
		t.Fatal("pool counters untouched — runs not using the shared pool?")
	}
	if m.GoMaxProcs < 1 || m.PoolWorkers < 1 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestBuildSpecDeterministic(t *testing.T) {
	g1, err := BuildSpec("kron:9:8:5")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildSpec("kron:9:8:5")
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("spec not deterministic")
	}
	for v := 0; v < g1.NumVertices(); v++ {
		n1, n2 := g1.Neighbors(uint32(v)), g2.Neighbors(uint32(v))
		if len(n1) != len(n2) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
	for _, bad := range []string{"", "kron", "kron:99", "er:10", "grid:0:5", "ba:-1:2", "kron:abc"} {
		if _, err := BuildSpec(bad); err == nil {
			t.Errorf("BuildSpec(%q) accepted", bad)
		}
	}
}

func TestBuildSpecResourceCaps(t *testing.T) {
	// Edge-count (not just vertex-count) bombs must be rejected: a tiny
	// n with a huge m would otherwise allocate terabytes.
	for _, bomb := range []string{
		"er:2:1000000000000",
		"kron:1:100000000000",
		"ba:1000:1000000000",
		"grid:3037000500:3037000500", // rows*cols overflows int64
		"community:100:0",
	} {
		if _, err := BuildSpec(bomb); err == nil {
			t.Errorf("BuildSpec(%q) accepted a resource bomb", bomb)
		}
	}
}

func TestColorNaNEpsilonRejected(t *testing.T) {
	s := NewServer(ManagerConfig{MaxInflight: 1, CacheEntries: 4})
	g, err := BuildSpec("kron:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("k8", "kron:8", g); err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{math.NaN(), -1} {
		_, err = s.Manager().Color(context.Background(), ColorRequest{Graph: "k8", Algorithm: "JP-ADG", Epsilon: eps})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("epsilon %v: want ErrBadRequest, got %v", eps, err)
		}
	}
}

func TestColorProcsBounded(t *testing.T) {
	s := NewServer(ManagerConfig{MaxInflight: 1, CacheEntries: 4})
	g, err := BuildSpec("kron:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("k8", "kron:8", g); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{-1, maxRequestProcs + 1, 1 << 30} {
		_, err := s.Manager().Color(context.Background(), ColorRequest{Graph: "k8", Algorithm: "JP-ADG", Procs: procs})
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("procs %d: want ErrBadRequest, got %v", procs, err)
		}
	}
	if _, err := s.Manager().Color(context.Background(), ColorRequest{Graph: "k8", Algorithm: "JP-ADG", Procs: 8}); err != nil {
		t.Errorf("procs 8 rejected: %v", err)
	}
}

func TestReRegisterDoesNotRebuild(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 1, CacheEntries: 4})
	addSpecGraph(t, ts, "k8", "kron:8")
	before, err := s.Registry().Get("k8")
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent re-registration must return the SAME entry (pointer
	// identity proves no rebuild happened).
	addSpecGraph(t, ts, "k8", "kron:8")
	after, err := s.Registry().Get("k8")
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("re-registration rebuilt the graph entry")
	}
	// A conflicting name still conflicts, without building.
	resp, _ := postJSON(t, ts.URL+"/v1/graphs", graphUploadRequest{Name: "k8", Spec: "kron:9"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	// An upload: pseudo-spec cannot alias an uploaded graph into the
	// idempotent-success path.
	resp, _ = postJSON(t, ts.URL+"/v1/graphs", graphUploadRequest{Name: "up", Format: "edgelist", Data: "0 1\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs", graphUploadRequest{Name: "up", Spec: "upload:edgelist"})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("upload: pseudo-spec aliased an uploaded graph")
	}
}

func TestColorBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 1, CacheEntries: 4})
	big := strings.NewReader(`{"graph":"` + strings.Repeat("x", maxColorBodyBytes+16) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/color", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "exceeds") {
		t.Fatalf("status %d body %s, want explicit too-large 400", resp.StatusCode, buf.String())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 1, CacheEntries: 4})
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/graphs: status %d, want 405", resp.StatusCode)
	}
	getColor, err := http.Get(ts.URL + "/v1/color")
	if err != nil {
		t.Fatal(err)
	}
	getColor.Body.Close()
	if getColor.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/color: status %d, want 405", getColor.StatusCode)
	}
}

// TestDeadlineCoversQueueWait: a request whose deadline expires while it
// is queued for an inflight slot must 504 by its own TimeoutMillis, not
// wait for the slot indefinitely.
func TestDeadlineCoversQueueWait(t *testing.T) {
	s := NewServer(ManagerConfig{MaxInflight: 1, CacheEntries: 4})
	g, err := BuildSpec("kron:8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("k8", "kron:8", g); err != nil {
		t.Fatal(err)
	}
	mgr := s.Manager()
	mgr.sem <- struct{}{} // hold the only slot
	defer func() { <-mgr.sem }()
	start := time.Now()
	_, err = mgr.Color(context.Background(), ColorRequest{
		Graph: "k8", Algorithm: "JP-ADG", Seed: 1, TimeoutMillis: 30, NoCache: true,
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("queued past deadline: want ErrCancelled, got %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("deadline while queued honored only after %v", e)
	}
}
