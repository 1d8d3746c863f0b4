package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// promLine matches one Prometheus text-exposition sample:
// name{labels} value — the labels block optional, the value any float.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [-+0-9.eE]*(Inf|NaN)?$`)

// drive sends enough traffic through ts for every request-path
// histogram to have observations: a color (miss), the same color again
// (cache hit), and a mutation (repair + dirty-fraction paths).
func drive(t *testing.T, ts string) {
	t.Helper()
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts+"/v1/color", ColorRequest{Graph: "obsg", Algorithm: "JP-ADG", Seed: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("color: %d %s", resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts+"/v1/graphs/obsg/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}, {3, 7}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
}

// getText fetches url with an optional Accept header and returns the
// body and its content type.
func getText(t *testing.T, url, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// getDoc fetches url's JSON document, decoded generically.
func getDoc(t *testing.T, url string) map[string]any {
	t.Helper()
	body, ct := getText(t, url, "")
	if !strings.Contains(ct, "application/json") {
		t.Fatalf("GET %s: content type %q, want JSON", url, ct)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("GET %s is not JSON: %v", url, err)
	}
	return doc
}

func TestPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "obsg", "kron:8")
	drive(t, ts.URL)

	// The default view stays JSON: shape-compatible with every
	// pre-existing scraper.
	doc := getDoc(t, ts.URL+"/metrics")
	if _, ok := doc["httpLatency"]; !ok {
		t.Fatal("JSON /metrics carries no httpLatency histograms")
	}
	for _, accept := range []string{"", "text/plain"} {
		url := ts.URL + "/metrics"
		if accept == "" {
			url += "?format=prom"
		}
		body, ct := getText(t, url, accept)
		if !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("prom content type = %q", ct)
		}
		lintProm(t, body, doc, metricsFamilies)
		// The stored histogram and counter families every node carries.
		for _, name := range []string{
			"colord_http_request_duration_seconds_bucket",
			"colord_http_request_duration_seconds_count",
			"colord_job_queue_wait_seconds_count",
			"colord_job_run_seconds_count",
			"colord_job_runs_total",
			"colord_job_singleflight_wait_seconds_count",
			"colord_engine_phase_seconds_count",
			"colord_mutate_dirty_fraction_count",
			"colord_mutate_repair_seconds_count",
			"colord_store_wal_append_seconds_count",
			"colord_store_compaction_seconds_count",
			"colord_recolor_pass_seconds_count",
		} {
			if !regexp.MustCompile(`(?m)^` + name + `[{ ]`).MatchString(body) {
				t.Fatalf("expected family %s missing from exposition", name)
			}
		}
		if !strings.Contains(body, `le="+Inf"`) {
			t.Fatal("histogram exposition carries no +Inf bucket")
		}
		if !strings.Contains(body, `endpoint="/v1/color"`) {
			t.Fatal("no per-endpoint request-duration series for /v1/color")
		}
		if !strings.Contains(body, `algorithm="JP-ADG"`) {
			t.Fatal("no per-algorithm series for JP-ADG")
		}
	}

	// A cluster node with a store and a tracked graph fills in every
	// optional block of both documents.
	nodes := newTestCluster(t, 2, 2)
	const g = "obscg"
	primary := orderNodes(nodes, g)[0]
	if resp, body := postJSON(t, primary.url+"/v1/graphs", map[string]any{"name": g, "spec": "kron:8", "targetColors": 40}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	mustMutateAt(t, primary.url, g, MutateRequest{AddEdges: [][2]uint32{{0, 1}, {3, 7}}})
	primary.srv().recolorVisit(context.Background(), g, 1)
	drive2 := ColorRequest{Graph: g, Algorithm: "JP-ADG", Seed: 1}
	if resp, body := postJSON(t, primary.url+"/v1/color", drive2); resp.StatusCode != http.StatusOK {
		t.Fatalf("color: %d %s", resp.StatusCode, body)
	}
	doc = getDoc(t, primary.url+"/metrics")
	for _, block := range []string{"store", "cluster"} {
		if doc[block] == nil {
			t.Fatalf("cluster node's /metrics has no %s block", block)
		}
	}
	body, _ := getText(t, primary.url+"/metrics?format=prom", "")
	lintProm(t, body, doc, metricsFamilies)

	// The cluster view: the per-node documents are each node's own
	// /metrics, so only the rest of the document is exported.
	cdoc := getDoc(t, primary.url+"/v1/cluster/metrics")
	delete(cdoc, "nodes")
	body, _ = getText(t, primary.url+"/v1/cluster/metrics?format=prom", "")
	lintProm(t, body, cdoc, clusterMetricsFamilies())
}

// metricsFamilies maps each numeric or boolean leaf of the JSON
// /metrics document (key paths as jsonKeyPaths writes them) to the
// family that exports it in the Prometheus view; a row with no path
// names a family only the exposition carries.
var metricsFamilies = [][2]string{
	{"uptimeSeconds", "colord_uptime_seconds"},
	{"requests", "colord_requests_total"},
	{"graphUploads", "colord_graph_uploads_total"},
	{"colorRequests", "colord_color_requests_total"},
	{"colorErrors", "colord_color_errors_total"},
	{"mutateRequests", "colord_mutate_requests_total"},
	{"mutateErrors", "colord_mutate_errors_total"},
	{"mutateFallbacks", "colord_mutate_fallbacks_total"},
	{"cacheInvalidations", "colord_cache_invalidations_total"},
	{"graphs", "colord_graphs"},
	{"cache.hits", "colord_cache_hits_total"},
	{"cache.misses", "colord_cache_misses_total"},
	{"cache.evictions", "colord_cache_evictions_total"},
	{"cache.entries", "colord_cache_entries"},
	{"cache.capacity", "colord_cache_capacity"},
	{"cacheHitRate", "colord_cache_hit_rate"},
	{"jobs.maxInflight", "colord_jobs_max_inflight"},
	{"jobs.inflight", "colord_jobs_inflight"},
	{"jobs.completed", "colord_jobs_completed_total"},
	{"jobs.cancelled", "colord_jobs_cancelled_total"},
	{"jobs.failed", "colord_jobs_failed_total"},
	{"jobs.coalesced", "colord_jobs_coalesced_total"},
	{"jobs.runsByProcs.*", "colord_job_runs_total"},
	{"pool.Forks", "colord_pool_forks_total"},
	{"pool.Dispatches", "colord_pool_dispatches_total"},
	{"pool.InlineBlocks", "colord_pool_inline_blocks_total"},
	{"pool.SeqCutoffHits", "colord_pool_seq_cutoff_hits_total"},
	{"poolWorkers", "colord_pool_workers"},
	{"goMaxProcs", "colord_go_max_procs"},
	{"store.graphs", "colord_store_graphs"},
	{"store.snapshots", "colord_store_snapshots"},
	{"store.snapshotBytes", "colord_store_snapshot_bytes"},
	{"store.walBytes", "colord_store_wal_bytes"},
	{"store.walRecords", "colord_store_wal_records"},
	{"store.walAppends", "colord_store_wal_appends_total"},
	{"store.compactions", "colord_store_compactions_total"},
	{"store.recoveredGraphs", "colord_store_recovered_graphs"},
	{"store.replayedBatches", "colord_store_replayed_batches"},
	{"store.truncatedWALs", "colord_store_truncated_wals"},
	{"persistErrors", "colord_persist_errors_total"},
	{"compactRequests", "colord_compact_requests_total"},
	{"cluster.nodes", "colord_cluster_nodes"},
	{"cluster.replicas", "colord_cluster_replicas"},
	{"cluster.epoch", "colord_cluster_epoch"},
	{"cluster.proxied", "colord_cluster_proxied_total"},
	{"cluster.replicatedBatches", "colord_cluster_replicated_batches_total"},
	{"cluster.replicationErrors", "colord_cluster_replication_errors_total"},
	{"cluster.hopRejections", "colord_cluster_hop_rejections_total"},
	{"cluster.catchupBatches", "colord_cluster_catchup_batches_total"},
	{"cluster.leaseRenewals", "colord_cluster_lease_renewals_total"},
	{"cluster.leaseFenced", "colord_cluster_lease_fenced_total"},
	{"cluster.resyncs", "colord_cluster_resyncs_total"},
	{"cluster.keyHomeServes", "colord_cluster_key_home_serves_total"},
	{"cluster.keyLocalHits", "colord_cluster_key_local_hits_total"},
	{"quality.enabled", "colord_quality_enabled"},
	{"quality.cycles", "colord_quality_cycles_total"},
	{"quality.skippedCycles", "colord_quality_skipped_cycles_total"},
	{"quality.passes", "colord_quality_passes_total"},
	{"quality.improvements", "colord_quality_improvements_total"},
	{"quality.colorsSaved", "colord_recolor_colors_saved_total"},
	{"quality.graphs.*.colors", "colord_graph_quality_colors"},
	{"quality.graphs.*.initialColors", "colord_graph_quality_initial_colors"},
	{"quality.graphs.*.targetColors", "colord_graph_quality_target_colors"},
	{"quality.graphs.*.version", "colord_graph_quality_version"},
	{"quality.graphs.*.passes", "colord_graph_quality_passes_total"},
	{"quality.graphs.*.improvements", "colord_graph_quality_improvements_total"},
	{"quality.graphs.*.colorsSaved", "colord_graph_quality_colors_saved_total"},
	{"quality.graphs.*.lastPassUnix", "colord_graph_quality_last_pass_timestamp_seconds"},
	{"quality.graphs.*.lastImprovementUnix", "colord_graph_quality_last_improvement_timestamp_seconds"},
	{"histMergeMismatches", "colord_hist_merge_mismatches_total"},
	{"httpLatency.*.count", "colord_http_request_duration_seconds"},
	{"httpLatency.*.sum", "colord_http_request_duration_seconds"},
	{"httpLatency.*.bounds[]", "colord_http_request_duration_seconds"},
	{"httpLatency.*.buckets[]", "colord_http_request_duration_seconds"},
	{"", "colord_graph_quality_slo_met"},
	{"", "colord_job_queue_wait_seconds"},
	{"", "colord_job_run_seconds"},
	{"", "colord_job_singleflight_wait_seconds"},
	{"", "colord_engine_phase_seconds"},
	{"", "colord_proxy_rtt_seconds"},
	{"", "colord_replication_rtt_seconds"},
	{"", "colord_mutate_dirty_fraction"},
	{"", "colord_mutate_repair_seconds"},
	{"", "colord_store_wal_append_seconds"},
	{"", "colord_store_compaction_seconds"},
	{"", "colord_recolor_pass_seconds"},
}

// clusterMetricsFamilies is metricsFamilies for /v1/cluster/metrics
// without its per-node documents.
func clusterMetricsFamilies() [][2]string {
	const merged = "colord_cluster_aggregate_http_request_duration_seconds"
	table := [][2]string{
		{"epoch", "colord_cluster_epoch"},
		{"nodesTotal", "colord_cluster_nodes"},
		{"nodesReporting", "colord_cluster_nodes_reporting"},
		{"aggregate.httpLatency.*.count", merged},
		{"aggregate.httpLatency.*.sum", merged},
		{"aggregate.httpLatency.*.bounds[]", merged},
		{"aggregate.httpLatency.*.buckets[]", merged},
		{"aggregate.latencySummary.*.count", merged},
		{"aggregate.latencySummary.*.p50", merged},
		{"aggregate.latencySummary.*.p95", merged},
		{"aggregate.latencySummary.*.p99", merged},
	}
	for _, c := range clusterSums {
		table = append(table, [2]string{"aggregate." + c.key, c.name})
	}
	return table
}

// promFamilies parses an exposition and returns the families that have
// samples. It fails the test on a sample line that does not parse, on
// a series that repeats, on a sample whose family has no HELP and TYPE
// line before it, and on a family that is typed counter without a
// _total name or the other way round.
func promFamilies(t *testing.T, body string) map[string]bool {
	t.Helper()
	help, typ := map[string]bool{}, map[string]string{}
	seen, fams := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch f := strings.Fields(line); {
		case line == "":
		case strings.HasPrefix(line, "# HELP ") && len(f) >= 3:
			help[f[2]] = true
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			typ[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line %q", line)
		default:
			if !promLine.MatchString(line) {
				t.Fatalf("unparseable exposition line: %q", line)
			}
			series := line[:strings.LastIndexByte(line, ' ')]
			if seen[series] {
				t.Fatalf("duplicate series: %q", series)
			}
			seen[series] = true
			fam, _, _ := strings.Cut(series, "{")
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(fam, suffix); ok && typ[base] == "histogram" {
					fam = base
				}
			}
			if typ[fam] == "" || !help[fam] {
				t.Fatalf("sample %q: family %s has no HELP and TYPE before it", line, fam)
			}
			if strings.HasSuffix(fam, "_total") != (typ[fam] == "counter") {
				t.Fatalf("family %s is typed %s", fam, typ[fam])
			}
			fams[fam] = true
		}
	}
	return fams
}

// lintProm checks an exposition against its JSON document through a
// table of (JSON key path, family) rows: every numeric or boolean value
// of doc needs a row whose family body carries, and every family body
// carries needs a row. So a value added to one view and not the other
// fails.
func lintProm(t *testing.T, body string, doc map[string]any, table [][2]string) {
	t.Helper()
	fams := promFamilies(t, body)
	byPath, listed := map[string]string{}, map[string]bool{}
	for _, row := range table {
		listed[row[1]] = true
		if row[0] != "" {
			byPath[row[0]] = row[1]
		}
	}
	leaves := map[string]bool{}
	walkKeyPaths("", "", doc, leaves)
	for leaf := range leaves {
		path, kind, _ := strings.Cut(leaf, " ")
		if kind == "string" {
			continue
		}
		fam, ok := byPath[path]
		switch {
		case !ok:
			t.Errorf("JSON value %s has no Prometheus family", path)
		case !fams[fam]:
			t.Errorf("JSON value %s: family %s is missing from the exposition", path, fam)
		}
	}
	for fam := range fams {
		if !listed[fam] {
			t.Errorf("family %s exports no JSON value and is not listed as exposition-only", fam)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	nodes := newTestCluster(t, 3, 2)
	const g = "tracedg"
	order := orderNodes(nodes, g)
	primary, replica, outsider := order[0], order[1], order[2]

	resp, body := postJSON(t, outsider.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	// A client-supplied ID rides the mutate through the outsider's proxy
	// hop to the primary and the primary's replication RPC to the
	// replica — synchronously, before the ack — so all three nodes must
	// hold the SAME ID in their span rings by the time the POST returns.
	const reqID = "e2e-trace-0001"
	data, _ := json.Marshal(MutateRequest{AddEdges: [][2]uint32{{0, 1}, {2, 5}}})
	req, err := http.NewRequest(http.MethodPost, outsider.url+"/v1/graphs/"+g+"/mutate", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d", mresp.StatusCode)
	}
	if got := mresp.Header.Get(obs.RequestIDHeader); got != reqID {
		t.Fatalf("response echoes request ID %q, want %q", got, reqID)
	}

	for _, tc := range []struct {
		role string
		n    *testNode
	}{{"outsider", outsider}, {"primary", primary}, {"replica", replica}} {
		trs := tc.n.srv().TraceRing().Find(reqID)
		if len(trs) == 0 {
			t.Fatalf("%s %s has no trace for %s", tc.role, tc.n.url, reqID)
		}
		if trs[0].Node != tc.n.url {
			t.Fatalf("%s trace node = %q, want %q", tc.role, trs[0].Node, tc.n.url)
		}
	}

	// The primary did the work: its trace carries the replicate and
	// repair spans; the outsider's carries the proxy hop.
	spanNames := func(n *testNode) map[string]bool {
		out := map[string]bool{}
		for _, tr := range n.srv().TraceRing().Find(reqID) {
			for _, sp := range tr.Spans {
				out[sp.Name] = true
			}
		}
		return out
	}
	if names := spanNames(primary); !names["replicate"] || !names["repair"] {
		t.Fatalf("primary spans = %v, want replicate and repair", names)
	}
	if names := spanNames(outsider); !names["proxy/"+primary.url] {
		t.Fatalf("outsider spans = %v, want proxy/%s", names, primary.url)
	}

	// The per-peer replication RTT histogram recorded the hop.
	found := false
	for key, snap := range primary.srv().met.replRTT.Snapshots() {
		if key == replica.url && snap.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("primary recorded no replication RTT for %s", replica.url)
	}

	// A server-generated ID appears when the client sends none.
	resp2, err := http.Post(outsider.url+"/v1/cluster/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get(obs.RequestIDHeader) == "" {
		t.Fatal("server issued no request ID")
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "obsg", "kron:8")
	drive(t, ts.URL)

	r, err := http.Get(ts.URL + "/v1/debug/trace?last=50")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		Node   string      `json:"node"`
		Count  int         `json:"count"`
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count == 0 || len(out.Traces) != out.Count {
		t.Fatalf("trace ring: count=%d traces=%d", out.Count, len(out.Traces))
	}
	var colorTrace *obs.Trace
	for i := range out.Traces {
		tr := &out.Traces[i]
		if tr.RequestID == "" {
			t.Fatalf("trace without a request ID: %+v", tr)
		}
		if tr.Endpoint == "/v1/color" && colorTrace == nil && len(tr.Spans) > 0 {
			colorTrace = tr
		}
	}
	if colorTrace == nil {
		t.Fatal("no /v1/color trace with spans in the ring")
	}
	// The cold run's spans include the engine phases, named algo/phase.
	var phases []string
	for _, sp := range colorTrace.Spans {
		phases = append(phases, sp.Name)
	}
	joined := strings.Join(phases, ",")
	if !strings.Contains(joined, "JP-ADG/") {
		t.Fatalf("color trace spans %v carry no engine phase", phases)
	}

	// Filtering by ID returns exactly that trace.
	fr, err := http.Get(ts.URL + fmt.Sprintf("/v1/debug/trace?id=%s", colorTrace.RequestID))
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Body.Close()
	var fout struct {
		Count  int         `json:"count"`
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.NewDecoder(fr.Body).Decode(&fout); err != nil {
		t.Fatal(err)
	}
	if fout.Count != 1 || fout.Traces[0].RequestID != colorTrace.RequestID {
		t.Fatalf("id filter returned %d traces", fout.Count)
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 1, CacheEntries: 4})
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		Status string `json:"status"`
		Node   string `json:"node"`
		Build  struct {
			GoVersion string `json:"goVersion"`
		} `json:"build"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" {
		t.Fatalf("status = %q", out.Status)
	}
	if out.Build.GoVersion == "" {
		t.Fatal("healthz build info carries no Go version")
	}
}

// promValue reads one series' value from s's Prometheus exposition.
func promValue(s *Server, series string) (float64, bool) {
	var b strings.Builder
	s.writeProm(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestQualitySeriesPerGraph gives graphs whose names differ only in
// punctuation (a-b, a.b) or in case and underscores (myGraph, my_graph)
// one graph-labeled series each, holding that graph's own values.
func TestQualitySeriesPerGraph(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	targets := map[string]int{"a-b": 11, "a.b": 2, "myGraph": 7, "my_graph": 5}
	for name, target := range targets {
		if resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]any{"name": name, "spec": "grid:4:4", "targetColors": target}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: %d %s", name, resp.StatusCode, body)
		}
		// A clique of target vertices forces at least target colors.
		mustMutateAt(t, ts.URL, name, MutateRequest{AddEdges: clique(target)})
	}
	for name, target := range targets {
		st, ok := s.QualityTracker().Get(name)
		if !ok || st.Colors < target {
			t.Fatalf("%s: tracker %+v, want at least %d colors", name, st, target)
		}
		for family, want := range map[string]int{"colord_graph_quality_colors": st.Colors, "colord_graph_quality_target_colors": target} {
			series := fmt.Sprintf("%s{graph=%q}", family, name)
			if got, ok := promValue(s, series); !ok || got != float64(want) {
				t.Errorf("%s = %v (present %v), want %d", series, got, ok, want)
			}
		}
	}
	body, _ := getText(t, ts.URL+"/metrics?format=prom", "")
	if n := strings.Count(body, "colord_graph_quality_colors{"); n != len(targets) {
		t.Fatalf("%d colord_graph_quality_colors series, want %d", n, len(targets))
	}
	lintProm(t, body, getDoc(t, ts.URL+"/metrics"), metricsFamilies)
}

// TestClusterMetricsDropsMalformedPeerHistograms feeds the cluster
// aggregate a peer document whose latency snapshots do not match their
// bounds, one with no finite bound at all: both stay out of the merged
// histograms and neither view fails. Each scrape counts the two drops
// where Merge counts a layout mismatch, in the process-wide counter the
// local document reports, so the aggregate's histMergeMismatches only
// goes up.
func TestClusterMetricsDropsMalformedPeerHistograms(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"requests": 5, "colorRequests": 2, "httpLatency": {
			"/v1/graphs": {"count": 3, "buckets": [3]},
			"/v1/color/bin": {"count": 3, "sum": 0.3, "bounds": [0.1, 0.2], "buckets": [3]}}}`)
	}))
	t.Cleanup(peer.Close)
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	c, err := cluster.New(cluster.Config{Self: ts.URL, Peers: []string{ts.URL, peer.URL}, Replicas: 2, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCluster(c, ClusterOptions{})

	scrape := func() int64 {
		t.Helper()
		before := obs.MergeMismatches()
		body, _ := getText(t, ts.URL+"/v1/cluster/metrics", "")
		var doc struct {
			NodesReporting int
			Aggregate      struct {
				ColorRequests, HistMergeMismatches int64
				HTTPLatency                        map[string]obs.HistogramSnapshot
			}
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("%v: %q", err, body)
		}
		if doc.NodesReporting != 2 || doc.Aggregate.ColorRequests != 2 {
			t.Fatalf("aggregate of the local node and the peer: %s", body)
		}
		for _, ep := range []string{"/v1/graphs", "/v1/color/bin"} {
			if _, ok := doc.Aggregate.HTTPLatency[ep]; ok {
				t.Fatalf("malformed %s snapshot merged into the aggregate", ep)
			}
		}
		if n := obs.MergeMismatches() - before; n != 2 {
			t.Fatalf("scrape counted %d merge mismatches, want 2", n)
		}
		return doc.Aggregate.HistMergeMismatches
	}
	if first, second := scrape(), scrape(); second != first+2 {
		t.Fatalf("histMergeMismatches %d, then %d: want the second 2 higher", first, second)
	}

	prom, _ := getText(t, ts.URL+"/v1/cluster/metrics?format=prom", "")
	if strings.Contains(prom, "NaN") {
		t.Fatalf("exposition carries NaN:\n%s", prom)
	}
	cdoc := getDoc(t, ts.URL+"/v1/cluster/metrics")
	delete(cdoc, "nodes")
	lintProm(t, prom, cdoc, clusterMetricsFamilies())
}
