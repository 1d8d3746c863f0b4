package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/verify"
)

// getBody GETs a URL and returns the response and full body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// decodeEnvelope asserts body is the JSON error envelope and returns it.
func decodeEnvelope(t *testing.T, body []byte) apiError {
	t.Helper()
	var env apiError
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		t.Fatalf("not an error envelope: %s (err %v)", body, err)
	}
	return env
}

func TestKeyRoutedReadsHintsAndOffHomeCacheServe(t *testing.T) {
	nodes := newTestCluster(t, 3, 2)
	const g = "keyroute"
	order := orderNodes(nodes, g)
	primary, replica, outsider := order[0], order[1], order[2]
	if resp, body := postJSON(t, primary.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// Pick a request whose cache key homes on the REPLICA: the proof that
	// read serving moved off the graph primary.
	req := ColorRequest{Graph: g, Algorithm: "JP-ADG", Seed: 1}
	for primary.c().KeyOrder(g, colorRouteKey(req))[0] != replica.url {
		req.Seed++
	}
	color := func(n *testNode) (ColorResponse, string) {
		t.Helper()
		resp, body := postJSON(t, n.url+"/v1/color", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("color via %s: %d %s", n.url, resp.StatusCode, body)
		}
		var cr ColorResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		// Every key-routed read — served at home, off-home, or via a proxy
		// relay — advertises the key's current home so clients can send
		// their next request for the key straight there (MOVED-style).
		if kh := resp.Header.Get(keyHomeHeader); kh == "" {
			t.Fatalf("read via %s carries no %s hint", n.url, keyHomeHeader)
		}
		return cr, resp.Header.Get(cacheHeader)
	}

	// The home serves locally: first compute ("home,miss"), then cache
	// ("home,hit").
	if _, hint := color(replica); hint != "home,miss" {
		t.Fatalf("first read at the key home hinted %q, want home,miss", hint)
	}
	if cr, hint := color(replica); hint != "home,hit" || !cr.Cached {
		t.Fatalf("second read at the key home hinted %q cached=%v, want home,hit true", hint, cr.Cached)
	}

	// The graph primary holds the graph but is NOT this key's home: it
	// proxies to the home and relays the home's hint.
	if _, hint := color(primary); hint != "home,hit" {
		t.Fatalf("read via the off-home primary hinted %q, want the relayed home,hit", hint)
	}
	if m := clusterMetrics(t, primary); m.Proxied == 0 {
		t.Fatal("off-home primary never proxied the key-routed read")
	}
	// A node outside the placement set proxies to the home too, and the
	// relayed hint names the actual home so the client can skip the hop
	// next time.
	if _, hint := color(outsider); hint != "home,hit" {
		t.Fatalf("read via the outsider hinted %q, want the relayed home,hit", hint)
	}
	if resp, _ := postJSON(t, outsider.url+"/v1/color", req); resp.Header.Get(keyHomeHeader) != replica.url {
		t.Fatalf("relayed %s = %q, want the key home %s", keyHomeHeader, resp.Header.Get(keyHomeHeader), replica.url)
	}
	if m := clusterMetrics(t, replica); m.KeyHomeServes < 3 {
		t.Fatalf("key home served %d requests, want >=3", m.KeyHomeServes)
	}

	// Off-home local cache serve: make the primary compute the key once
	// (while it believes the home is down it IS the fallback home), then
	// heal — the next read finds the key resident and answers with a
	// bare "hit", no recompute, no hop.
	markDown(primary, replica.url)
	if _, hint := color(primary); hint != "home,miss" {
		t.Fatalf("fallback-home read hinted %q, want home,miss", hint)
	}
	primary.c().ReportSuccess(replica.url)
	if cr, hint := color(primary); hint != "hit" || !cr.Cached {
		t.Fatalf("off-home cached read hinted %q cached=%v, want hit true", hint, cr.Cached)
	}
	if m := clusterMetrics(t, primary); m.KeyLocalHits == 0 {
		t.Fatal("off-home cache serve not gauged in keyLocalHits")
	}

	// The list view exposes the placement: primary, replica set, and a
	// cache-home sample inside the placement set.
	resp, body := getBody(t, primary.url+"/v1/graphs/"+g)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph info: %d %s", resp.StatusCode, body)
	}
	var info graphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Primary != primary.url {
		t.Fatalf("info.primary = %q, want %q", info.Primary, primary.url)
	}
	if len(info.Replicas) != 2 || info.Replicas[0] != primary.url || info.Replicas[1] != replica.url {
		t.Fatalf("info.replicas = %v, want [%s %s]", info.Replicas, primary.url, replica.url)
	}
	if info.CacheHome != primary.url && info.CacheHome != replica.url {
		t.Fatalf("info.cacheHome = %q outside the placement set", info.CacheHome)
	}
}

func TestColorBinMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 16})
	if resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]string{"name": "bing", "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	_, jbody := postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "bing", Algorithm: "JP-ADG", Seed: 5, Epsilon: 0.02, IncludeColors: true})
	var jresp ColorResponse
	if err := json.Unmarshal(jbody, &jresp); err != nil {
		t.Fatal(err)
	}
	resp, body := getBody(t, ts.URL+"/v1/color/bin?graph=bing&algorithm=JP-ADG&seed=5&eps=0.02")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary read: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ColorBinContentType {
		t.Fatalf("content type %q, want %q", ct, ColorBinContentType)
	}
	version, seed, eps, numColors, colors, err := DecodeColorBin(body)
	if err != nil {
		t.Fatal(err)
	}
	if version != jresp.GraphVersion || seed != 5 || eps != 0.02 {
		t.Fatalf("header (v=%d seed=%d eps=%v), want (v=%d seed=5 eps=0.02)", version, seed, eps, jresp.GraphVersion)
	}
	if numColors != jresp.NumColors {
		t.Fatalf("numColors %d, want JSON's %d", numColors, jresp.NumColors)
	}
	if len(colors) != len(jresp.Colors) {
		t.Fatalf("%d colors, want JSON's %d", len(colors), len(jresp.Colors))
	}
	for v := range colors {
		if colors[v] != jresp.Colors[v] {
			t.Fatalf("binary/JSON diverge at vertex %d: %d vs %d", v, colors[v], jresp.Colors[v])
		}
	}
}

func TestColorBinValidationAndEnvelope(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 16})
	// Missing params: 400 with the bad_request envelope code.
	resp, body := getBody(t, ts.URL+"/v1/color/bin?graph=onlygraph")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing algorithm: %d, want 400", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Code != "bad_request" {
		t.Fatalf("envelope code %q, want bad_request", env.Code)
	}
	// Wrong method: 405 with its own code.
	presp, pbody := postJSON(t, ts.URL+"/v1/color/bin", map[string]string{"graph": "x"})
	if presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on /v1/color/bin: %d, want 405", presp.StatusCode)
	}
	if env := decodeEnvelope(t, pbody); env.Code != "method_not_allowed" {
		t.Fatalf("envelope code %q, want method_not_allowed", env.Code)
	}
	// Unknown graph: 404 not_found.
	resp, body = getBody(t, ts.URL+"/v1/color/bin?graph=nope&algorithm=JP-ADG")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Code != "not_found" {
		t.Fatalf("envelope code %q, want not_found", env.Code)
	}
	// Unparsable numerics are 400s, not 500s.
	for _, q := range []string{"graph=g&algorithm=a&seed=xyz", "graph=g&algorithm=a&eps=nope", "graph=g&algorithm=a&procs=1.5"} {
		resp, body = getBody(t, ts.URL+"/v1/color/bin?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: %d %s, want 400", q, resp.StatusCode, body)
		}
	}
}

func TestDecodeColorBinRejectsCorruptBodies(t *testing.T) {
	good := append(binHeader(3, 7, 0.01, 2, 1), colorsLEBytes([]uint32{0, 0})...)
	if _, _, _, _, colors, err := DecodeColorBin(good); err != nil || len(colors) != 2 {
		t.Fatalf("round trip failed: %v (colors %v)", err, colors)
	}
	for name, body := range map[string][]byte{
		"short":     good[:10],
		"badmagic":  append([]byte("NOTMAGIC"), good[8:]...),
		"truncated": good[:len(good)-1],
		"overlong":  append(append([]byte{}, good...), 0),
	} {
		if _, _, _, _, _, err := DecodeColorBin(body); err == nil {
			t.Errorf("%s body decoded without error", name)
		}
	}
}

func TestColorBinMaintainedServesDynamicThenSnapshot(t *testing.T) {
	srv := NewServer(ManagerConfig{MaxInflight: 2, CacheEntries: 16, DefaultTimeout: 30 * time.Second})
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachStore(st)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]string{"name": "maint", "spec": "kron:7"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// No maintained coloring yet: a mutation has never produced one.
	resp, body := getBody(t, ts.URL+"/v1/color/bin?graph=maint&algorithm=maintained")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("maintained before any mutation: %d %s, want 404", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Code != "not_found" {
		t.Fatalf("envelope code %q, want not_found", env.Code)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/graphs/maint/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}, {1, 2}, {2, 0}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	fetch := func() (uint64, int, []uint32) {
		t.Helper()
		resp, body := getBody(t, ts.URL+"/v1/color/bin?graph=maint&algorithm=maintained")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("maintained bin: %d %s", resp.StatusCode, body)
		}
		version, seed, _, numColors, colors, err := DecodeColorBin(body)
		if err != nil {
			t.Fatal(err)
		}
		if seed != mutateOptions.Seed {
			t.Fatalf("maintained header seed %d, want the repair engine's %d", seed, mutateOptions.Seed)
		}
		return version, numColors, colors
	}
	// Served from the in-memory maintained coloring (the store snapshot
	// still sits at version 0, behind the live version 1).
	version, numColors, colors := fetch()
	if version != 1 {
		t.Fatalf("maintained coloring at version %d, want 1", version)
	}
	e, err := srv.Registry().Get("maint")
	if err != nil {
		t.Fatal(err)
	}
	gv, ver, err := e.View()
	if err != nil || ver != 1 {
		t.Fatalf("view at version %d (err %v), want 1", ver, err)
	}
	if len(colors) != gv.NumVertices() {
		t.Fatalf("%d colors for %d vertices", len(colors), gv.NumVertices())
	}
	if err := verify.CheckProper(gv, colors); err != nil {
		t.Fatalf("maintained coloring improper: %v", err)
	}
	if d := verify.NumColors(colors); d != numColors {
		t.Fatalf("header numColors %d but %d distinct values", numColors, d)
	}

	// Compact folds the coloring into the mmapped snapshot at version 1:
	// the same bytes must now come from the zero-copy snapshot path.
	if resp, body := postJSON(t, ts.URL+"/v1/admin/compact", adminCompactRequest{Graph: "maint"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, body)
	}
	if _, snapNC, snapVer, ok := st.SnapshotColors("maint"); !ok || snapVer != 1 {
		t.Fatalf("snapshot colors at version %d ok=%v after compact, want 1 true", snapVer, ok)
	} else if snapNC != numColors {
		t.Fatalf("snapshot cached numColors %d, dynamic header says %d", snapNC, numColors)
	}
	version2, numColors2, colors2 := fetch()
	if version2 != version || numColors2 != numColors || len(colors2) != len(colors) {
		t.Fatalf("snapshot serve changed shape: v=%d nc=%d n=%d, want v=%d nc=%d n=%d",
			version2, numColors2, len(colors2), version, numColors, len(colors))
	}
	for v := range colors {
		if colors2[v] != colors[v] {
			t.Fatalf("snapshot serve diverges from dynamic serve at vertex %d", v)
		}
	}
}

func TestGraphsPagination(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 16})
	for i := 0; i < 5; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]string{"name": fmt.Sprintf("pg%d", i), "spec": "grid:4:4"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %d: %d %s", i, resp.StatusCode, body)
		}
	}
	type page struct {
		Graphs []graphInfo `json:"graphs"`
		Total  int         `json:"total"`
		Offset int         `json:"offset"`
		Count  int         `json:"count"`
	}
	fetch := func(q string) page {
		t.Helper()
		resp, body := getBody(t, ts.URL+"/v1/graphs"+q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q: %d %s", q, resp.StatusCode, body)
		}
		var p page
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// No params: everything, with the total.
	all := fetch("")
	if all.Total != 5 || all.Count != 5 || all.Offset != 0 {
		t.Fatalf("unpaginated list: %+v", all)
	}
	// Two pages of 3 cover the set exactly once, in the same stable order.
	seen := map[string]bool{}
	for _, q := range []string{"?limit=3", "?limit=3&offset=3"} {
		p := fetch(q)
		if p.Total != 5 {
			t.Fatalf("page %q total %d, want 5", q, p.Total)
		}
		for _, gi := range p.Graphs {
			if seen[gi.Name] {
				t.Fatalf("graph %q appears on both pages", gi.Name)
			}
			seen[gi.Name] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("pages covered %d/5 graphs", len(seen))
	}
	// Offset past the end clamps to an empty page; limit=0 is empty too.
	if p := fetch("?offset=50"); p.Count != 0 || p.Total != 5 || p.Offset != 5 {
		t.Fatalf("past-the-end page: %+v", p)
	}
	if p := fetch("?limit=0"); p.Count != 0 || p.Total != 5 {
		t.Fatalf("limit=0 page: %+v", p)
	}
	// Malformed paging params are 400s with the envelope code.
	for _, q := range []string{"?limit=-1", "?limit=abc", "?offset=-3", "?offset=x"} {
		resp, body := getBody(t, ts.URL+"/v1/graphs"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("list %q: %d, want 400", q, resp.StatusCode)
		}
		if env := decodeEnvelope(t, body); env.Code != "bad_request" {
			t.Fatalf("list %q envelope code %q, want bad_request", q, env.Code)
		}
	}
}

func TestErrorCodeMapping(t *testing.T) {
	for err, want := range map[error]string{
		ErrBadRequest:       "bad_request",
		ErrNotFound:         "not_found",
		ErrConflict:         "conflict",
		ErrDiverged:         "diverged",
		ErrFenced:           "fenced",
		ErrUnavailable:      "unavailable",
		ErrMethodNotAllowed: "method_not_allowed",
		ErrCancelled:        "cancelled",
		io.EOF:              "internal",
	} {
		if got := errorCode(err); got != want {
			t.Errorf("errorCode(%v) = %q, want %q", err, got, want)
		}
		// Wrapping must not change the code — handlers always wrap with %w.
		if got := errorCode(fmt.Errorf("context: %w", err)); got != want {
			t.Errorf("errorCode(wrapped %v) = %q, want %q", err, got, want)
		}
	}
}

func TestBuildSpecWattsStrogatz(t *testing.T) {
	// The ws: spec is deterministic and matches the generator call it
	// documents (beta as a percentage, default 10% and seed 1).
	got, err := BuildSpec("ws:200:6:20:3")
	if err != nil {
		t.Fatal(err)
	}
	want, err := gen.WattsStrogatz(200, 6, 0.2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("spec shape n=%d m=%d, generator n=%d m=%d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := 0; v < got.NumVertices(); v++ {
		ng, nw := got.Neighbors(uint32(v)), want.Neighbors(uint32(v))
		if len(ng) != len(nw) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range ng {
			if ng[i] != nw[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
	defaults, err := BuildSpec("ws:50:4")
	if err != nil {
		t.Fatal(err)
	}
	wantDefaults, err := gen.WattsStrogatz(50, 4, 0.1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if defaults.NumEdges() != wantDefaults.NumEdges() {
		t.Fatalf("default beta/seed diverge: m=%d vs %d", defaults.NumEdges(), wantDefaults.NumEdges())
	}
	for _, bad := range []string{"ws:10:3", "ws:10:4:101", "ws:-1:4", "ws:10"} {
		if _, err := BuildSpec(bad); err == nil {
			t.Errorf("BuildSpec(%q) accepted", bad)
		}
	}
}

// TestBuildSpecIsDeterministic pins the promise that a spec string
// rebuilds the identical graph anywhere, which WAL replay onto a
// rebuilt spec graph, a replica's spec reset and colorload's client-side
// checks rely on: every family, built twice, gives the same CSR.
func TestBuildSpecIsDeterministic(t *testing.T) {
	for _, spec := range []string{
		"kron:10", "er:2000:8000:3", "ba:2000:4", "ba:20000:8", "grid:40:50", "ws:2000:6:20:3", "community:2000:8",
	} {
		t.Run(spec, func(t *testing.T) {
			a, err := BuildSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := BuildSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.Offsets(), b.Offsets()) || !slices.Equal(a.Adjacency(), b.Adjacency()) {
				t.Fatalf("two builds differ: n=%d m=%d and n=%d m=%d", a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
			}
		})
	}
}
