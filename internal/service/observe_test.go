package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

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

func TestPrometheusExposition(t *testing.T) {
	s, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts, "obsg", "kron:8")
	drive(t, ts.URL)

	// The default view stays JSON: shape-compatible with every
	// pre-existing scraper.
	jr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	if ct := jr.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default /metrics content type = %q, want JSON", ct)
	}
	var doc map[string]interface{}
	if err := json.NewDecoder(jr.Body).Decode(&doc); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	if _, ok := doc["httpLatency"]; !ok {
		t.Fatal("JSON /metrics carries no httpLatency histograms")
	}

	for _, req := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(ts.URL + "/metrics?format=prom") },
		func() (*http.Response, error) {
			r, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
			r.Header.Set("Accept", "text/plain")
			return http.DefaultClient.Do(r)
		},
	} {
		pr, err := req()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(pr.Body)
		pr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := pr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("prom content type = %q", ct)
		}
		lintProm(t, s, string(body))
	}
}

// lintProm is the exposition round-trip check: every line parses,
// no series repeats, and every numeric leaf of the JSON document
// surfaces as a flattened gauge.
func lintProm(t *testing.T, s *Server, body string) {
	t.Helper()
	seriesSeen := map[string]bool{}
	namesSeen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if seriesSeen[series] {
			t.Fatalf("duplicate series: %q", series)
		}
		seriesSeen[series] = true
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		namesSeen[name] = true
	}

	// The flattened JSON gauges: the document the handler flattens,
	// without the fields the registry serves natively.
	flat, err := obs.FlattenJSONNames("colord", s.promSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range flat {
		if !namesSeen[n] {
			t.Fatalf("flattened JSON gauge %s missing from exposition", n)
		}
	}

	// The native histogram families the tentpole promises.
	for _, name := range []string{
		"colord_http_request_duration_seconds_bucket",
		"colord_http_request_duration_seconds_count",
		"colord_job_queue_wait_seconds_count",
		"colord_job_run_seconds_count",
		"colord_job_runs_total",
		"colord_engine_phase_seconds_count",
		"colord_store_wal_append_seconds_count",
	} {
		if !namesSeen[name] {
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
