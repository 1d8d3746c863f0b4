package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/verify"
)

// recolorUntilImproved drives the worker's visit hook directly (no
// timing dependence) until an adoption lands or the visit budget runs
// dry. Returns the colors saved in total.
func recolorUntilImproved(s *Server, name string, visits int) int64 {
	for i := 0; i < visits; i++ {
		s.recolorVisit(context.Background(), name, 4)
		if st, ok := s.QualityTracker().Get(name); ok && st.ColorsSaved > 0 {
			return st.ColorsSaved
		}
	}
	st, _ := s.QualityTracker().Get(name)
	return st.ColorsSaved
}

// TestRecolorNeverIncreasesAcrossFamilies is the quality engine's core
// property, checked across seven generator-family fixtures: background
// recoloring must NEVER increase a maintained color count, and on a
// meaningful fraction of families (>= 3 of 7) it strictly reduces one.
func TestRecolorNeverIncreasesAcrossFamilies(t *testing.T) {
	specs := []struct{ name, spec string }{
		{"kron", "kron:9"},
		{"kron-dense", "kron:8:24"},
		{"er", "er:800:8000"},
		{"ba", "ba:1500:6"},
		{"ws", "ws:1500:10:10"},
		{"grid", "grid:40:40"},
		{"community", "community:1500:8"},
	}
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	improvedFamilies := 0
	for _, tc := range specs {
		addSpecGraph(t, ts, tc.name, tc.spec)
		e, err := s.Registry().Get(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		// First visit creates the maintained coloring (full JP-ADG run)
		// and may already adopt an improvement — the tracker's pinned
		// InitialColors is the true "before".
		s.recolorVisit(context.Background(), tc.name, 4)
		_, low, _, ok := e.MaintainedColors()
		if !ok || low <= 0 {
			t.Fatalf("%s: no maintained coloring after first visit", tc.name)
		}
		for i := 0; i < 12; i++ {
			s.recolorVisit(context.Background(), tc.name, 4)
			_, nc, ver, _ := e.MaintainedColors()
			if nc > low {
				t.Fatalf("%s: recoloring INCREASED colors %d -> %d on visit %d", tc.name, low, nc, i)
			}
			if ver != 0 {
				t.Fatalf("%s: recoloring moved graphVersion to %d", tc.name, ver)
			}
			low = nc
		}
		// Whatever was adopted must still be a proper coloring.
		colors, nc, _, _ := e.MaintainedColors()
		g, _, err := e.View()
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckProper(g, colors); err != nil {
			t.Fatalf("%s: maintained coloring improper after recoloring: %v", tc.name, err)
		}
		st, ok := s.QualityTracker().Get(tc.name)
		if !ok || st.Passes == 0 {
			t.Fatalf("%s: tracker recorded no passes: %+v", tc.name, st)
		}
		if nc < st.InitialColors {
			improvedFamilies++
		}
		if int64(st.InitialColors-nc) != st.ColorsSaved {
			t.Fatalf("%s: tracker says %d saved, actual %d -> %d", tc.name, st.ColorsSaved, st.InitialColors, nc)
		}
	}
	if improvedFamilies < 3 {
		t.Fatalf("recoloring improved only %d of %d families, want >= 3", improvedFamilies, len(specs))
	}
	t.Logf("recoloring strictly improved %d of %d families", improvedFamilies, len(specs))
}

func getQuality(t *testing.T, url, name string) qualityDoc {
	t.Helper()
	resp, err := http.Get(url + "/v1/graphs/" + name + "/quality")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET quality: status %d", resp.StatusCode)
	}
	var doc qualityDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func patchQuality(t *testing.T, url, name string, body string) (*http.Response, qualityDoc) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url+"/v1/graphs/"+name+"/quality", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc qualityDoc
	_ = json.NewDecoder(resp.Body).Decode(&doc)
	return resp, doc
}

func TestQualityEndpointLifecycle(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})

	// Registration can carry the objective.
	resp, body := postJSON(t, ts.URL+"/v1/graphs", graphUploadRequest{Name: "er", Spec: "er:800:5000", TargetColors: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	doc := getQuality(t, ts.URL, "er")
	if doc.TargetColors != 3 || doc.SLO != "burning" {
		t.Fatalf("fresh graph with impossible target: %+v", doc)
	}

	// A visit establishes the maintained coloring; with a sane target
	// the SLO flips to met.
	s.recolorVisit(context.Background(), "er", 2)
	doc = getQuality(t, ts.URL, "er")
	if doc.Colors <= 0 || doc.Passes == 0 {
		t.Fatalf("after visit: %+v", doc)
	}
	if resp, patched := patchQuality(t, ts.URL, "er", `{"targetColors": 1000}`); resp.StatusCode != http.StatusOK || patched.SLO != "met" {
		t.Fatalf("generous target: status %d doc %+v", resp.StatusCode, patched)
	}
	// Clearing the objective.
	if _, patched := patchQuality(t, ts.URL, "er", `{"targetColors": 0}`); patched.SLO != "none" {
		t.Fatalf("cleared target: %+v", patched)
	}
	// Bad bodies.
	if resp, _ := patchQuality(t, ts.URL, "er", `{"targetColors": -1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative target: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := patchQuality(t, ts.URL, "er", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing field: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := patchQuality(t, ts.URL, "nosuch", `{"targetColors": 5}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", resp.StatusCode)
	}

	// The graph listing carries the compact quality summary.
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
	if len(listed.Graphs) != 1 || listed.Graphs[0].Quality == nil || listed.Graphs[0].Quality.Colors != doc.Colors {
		t.Fatalf("listing quality = %+v, want colors %d", listed.Graphs[0].Quality, doc.Colors)
	}

	// Metrics: the quality block and the new prom families.
	m := s.SnapshotMetrics()
	if m.Quality == nil || m.Quality.Passes == 0 || m.Quality.Graphs["er"].Colors != doc.Colors {
		t.Fatalf("metrics quality = %+v", m.Quality)
	}
	var prom bytes.Buffer
	s.writeProm(&prom)
	for _, family := range []string{"colord_recolor_pass_seconds", "colord_recolor_colors_saved_total", "colord_graph_quality_colors", "colord_graph_quality_slo_met"} {
		if !strings.Contains(prom.String(), family) {
			t.Fatalf("prom exposition missing %s", family)
		}
	}
}

// TestRecolorAdoptionSwapsCacheGeneration pins the tentpole contract:
// an adopted improvement purges cached colorings and serves the new
// maintained coloring at the SAME graphVersion.
func TestRecolorAdoptionSwapsCacheGeneration(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "er", "er:800:8000")

	// Establish the maintained coloring WITHOUT improving it (a
	// zero-pass visit just runs the initial full coloring), so the
	// first read below is the true pre-adoption baseline.
	s.recolorVisit(context.Background(), "er", 0)
	readMaintained := func() (uint64, int) {
		resp, err := http.Get(ts.URL + "/v1/color/bin?graph=er&algorithm=maintained")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("maintained read: status %d: %s", resp.StatusCode, buf.String())
		}
		version, _, _, numColors, colors, err := DecodeColorBin(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		g, _, _ := mustEntry(t, s, "er").View()
		if err := verify.CheckProper(g, colors); err != nil {
			t.Fatalf("served maintained coloring improper: %v", err)
		}
		return version, numColors
	}
	v0, before := readMaintained()
	if v0 != 0 {
		t.Fatalf("fresh maintained coloring at version %d, want 0", v0)
	}

	saved := recolorUntilImproved(s, "er", 24)
	if saved == 0 {
		t.Skip("no strict improvement found on the fixture; adoption path not reachable here")
	}
	invalidations := s.cacheInvalidations.Value()
	v1, after := readMaintained()
	if v1 != v0 {
		t.Fatalf("adoption bumped graphVersion %d -> %d", v0, v1)
	}
	if after >= before {
		t.Fatalf("served maintained colors did not improve: %d -> %d", before, after)
	}
	_ = invalidations // cache was empty pre-adoption; the purge count is load-dependent
	e := mustEntry(t, s, "er")
	if e.qualityGen.Load() == 0 {
		t.Fatal("adoption did not advance the quality generation")
	}
}

func mustEntry(t *testing.T, s *Server, name string) *GraphEntry {
	t.Helper()
	e, err := s.Registry().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestClusterMetricsSingleNode(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "k8", "kron:8")
	// Generate one color request so counters and latency series exist.
	resp, body := postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "k8", Algorithm: "JP-ADG"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("color: status %d: %s", resp.StatusCode, body)
	}

	get, err := http.Get(ts.URL + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var doc struct {
		NodesTotal, NodesReporting int
		Nodes                      []clusterNodeMetrics
		Aggregate                  struct {
			Requests, ColorRequests int64
			LatencySummary          map[string]latencySummary
		}
	}
	if err := json.NewDecoder(get.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.NodesTotal != 1 || doc.NodesReporting != 1 || len(doc.Nodes) != 1 {
		t.Fatalf("single-node doc: %+v", doc)
	}
	if doc.Nodes[0].Metrics == nil || doc.Aggregate.ColorRequests == 0 {
		t.Fatalf("aggregate missed the local metrics: %+v", doc.Aggregate)
	}
	if len(doc.Aggregate.LatencySummary) == 0 {
		t.Fatal("no latency summary despite observed requests")
	}
	for ep, q := range doc.Aggregate.LatencySummary {
		if q.Count <= 0 || q.P50 < 0 || q.P99 < q.P50 {
			t.Fatalf("endpoint %s: implausible quantiles %+v", ep, q)
		}
	}
	// The aggregate must match the single node's own counters exactly.
	if doc.Aggregate.Requests != doc.Nodes[0].Metrics.Requests {
		t.Fatalf("aggregate requests %d != node requests %d", doc.Aggregate.Requests, doc.Nodes[0].Metrics.Requests)
	}

	// Prom shape: parses as exposition lines, carries the aggregate.
	text, _ := getText(t, ts.URL+"/v1/cluster/metrics?format=prom", "")
	if !strings.Contains(text, "colord_cluster_aggregate_color_requests_total 1\n") {
		t.Fatalf("prom exposition missing aggregate counters:\n%.500s", text)
	}
	if strings.Contains(text, "NaN") {
		t.Fatalf("prom exposition carries NaN:\n%.500s", text)
	}
	if s.node == "" {
		t.Fatal("unreachable") // silence unused s in minimal builds
	}
}

// TestMutateRefoldsQuality pins the interaction between mutations and
// the tracker: a mutation's repair re-observes the (possibly wider)
// color count, and a subsequent adoption at the new version is
// accepted while one computed against the OLD version is dropped.
func TestMutateRefoldsQuality(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "er", "er:600:3600")
	s.recolorVisit(context.Background(), "er", 2)
	doc := getQuality(t, ts.URL, "er")
	if doc.Version != 0 {
		t.Fatalf("pre-mutation version %d", doc.Version)
	}
	resp, body := postJSON(t, ts.URL+"/v1/graphs/er/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}, {2, 3}, {4, 5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, body)
	}
	doc = getQuality(t, ts.URL, "er")
	if doc.Version != 1 || doc.Colors <= 0 {
		t.Fatalf("post-mutation quality: %+v", doc)
	}
	// Visits keep working against the new version.
	s.recolorVisit(context.Background(), "er", 2)
	e := mustEntry(t, s, "er")
	if _, _, ver, _ := e.MaintainedColors(); ver != 1 {
		t.Fatalf("maintained version %d after visit, want 1", ver)
	}
}

// TestRecolorShipmentHugeColorRejected: a shipped coloring that is
// proper but labels one class 4294967295 must be refused with a 4xx —
// not panic the handler with the graph's mutation lock held — and the
// graph must keep accepting mutations afterwards.
func TestRecolorShipmentHugeColorRejected(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 4})
	addSpecGraph(t, ts, "g", "kron:8")
	mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{0, 9}}})
	e, err := s.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	colors, _, version, ok := e.MaintainedColors()
	if !ok {
		t.Fatal("no maintained coloring after a mutation")
	}
	for v, c := range colors {
		if c == 1 {
			colors[v] = math.MaxUint32
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/internal/recolor",
		recolorShipment{Graph: "g", Version: version, NumColors: 1, Colors: colors})
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("huge-color shipment: status %d (%s), want 4xx", resp.StatusCode, body)
	}
	done := make(chan MutateResponse, 1)
	go func() { done <- mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{1, 10}}}) }()
	select {
	case m := <-done:
		if m.Version != version+1 {
			t.Fatalf("mutate after the rejected shipment: version %d, want %d", m.Version, version+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mutate after the rejected shipment blocked: the entry lock is still held")
	}
}
