package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// dataKeyedObjects names the JSON objects whose keys are data rather
// than schema (endpoints, worker counts, graph names): their keys read
// as "*" in a key path.
var dataKeyedObjects = map[string]bool{
	"httpLatency":    true,
	"latencySummary": true,
	"runsByProcs":    true,
	"graphs":         true,
}

// jsonKeyPaths fetches url and returns the sorted key paths of its JSON
// document, each with its leaf type: "cache.hits number",
// "nodes[].node string", "algorithms[] string".
func jsonKeyPaths(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	set := map[string]bool{}
	walkKeyPaths("", "", doc, set)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func walkKeyPaths(path, key string, v any, out map[string]bool) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			if dataKeyedObjects[key] {
				k = "*"
			}
			p := k
			if path != "" {
				p = path + "." + k
			}
			walkKeyPaths(p, k, c, out)
		}
	case []any:
		for _, c := range t {
			walkKeyPaths(path+"[]", key, c, out)
		}
	case string:
		out[path+" string"] = true
	case float64:
		out[path+" number"] = true
	case bool:
		out[path+" bool"] = true
	default:
		out[path+" null"] = true
	}
}

// checkKeyPaths compares got against testdata/metrics_paths/<name>.
func checkKeyPaths(t *testing.T, name string, got []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "metrics_paths", name))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	gotSet := map[string]bool{}
	for _, p := range got {
		gotSet[p] = true
	}
	wantSet := map[string]bool{}
	for _, p := range want {
		wantSet[p] = true
		if !gotSet[p] {
			t.Errorf("%s: key path %q is gone", name, p)
		}
	}
	for _, p := range got {
		if !wantSet[p] {
			t.Errorf("%s: new key path %q", name, p)
		}
	}
	if t.Failed() {
		t.Logf("%s now reads:\n%s", name, strings.Join(got, "\n"))
	}
}

// TestMetricsJSONKeyPaths pins the shape of the JSON /metrics and
// /v1/cluster/metrics documents, which colorload, colordbench, the
// cluster fan-out and the scripts' jq paths decode: every key path and
// leaf type, on a lone node and on a cluster node with a store and a
// graph whose quality is tracked.
func TestMetricsJSONKeyPaths(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
		addSpecGraph(t, ts, "pathg", "kron:8")
		for i := 0; i < 2; i++ {
			if resp, body := postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "pathg", Algorithm: "JP-ADG", Seed: 1}); resp.StatusCode != http.StatusOK {
				t.Fatalf("color: %d %s", resp.StatusCode, body)
			}
		}
		mustMutateAt(t, ts.URL, "pathg", MutateRequest{AddEdges: [][2]uint32{{0, 1}, {3, 7}}})
		if resp, _ := patchQuality(t, ts.URL, "pathg", `{"targetColors": 64}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("patch quality: %d", resp.StatusCode)
		}
		checkKeyPaths(t, "single_metrics", jsonKeyPaths(t, ts.URL+"/metrics"))
		checkKeyPaths(t, "single_cluster_metrics", jsonKeyPaths(t, ts.URL+"/v1/cluster/metrics"))
	})

	t.Run("cluster", func(t *testing.T) {
		nodes := newTestCluster(t, 2, 2)
		const g = "pathcg"
		primary := orderNodes(nodes, g)[0]
		if resp, body := postJSON(t, primary.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("register: %d %s", resp.StatusCode, body)
		}
		mustMutateAt(t, primary.url, g, MutateRequest{AddEdges: [][2]uint32{{0, 1}, {3, 7}}})
		if resp, _ := patchQuality(t, primary.url, g, `{"targetColors": 64}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("patch quality: %d", resp.StatusCode)
		}
		// A read whose key home is the primary, so the primary runs it
		// and its runsByProcs is filled in.
		req := ColorRequest{Graph: g, Algorithm: "JP-ADG"}
		for req.Seed = 1; ; req.Seed++ {
			if home, ok := primary.c().KeyHome(g, colorRouteKey(req)); ok && home == primary.url {
				break
			}
		}
		if resp, body := postJSON(t, primary.url+"/v1/color", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("color: %d %s", resp.StatusCode, body)
		}
		checkKeyPaths(t, "cluster_metrics", jsonKeyPaths(t, primary.url+"/metrics"))
		checkKeyPaths(t, "cluster_cluster_metrics", jsonKeyPaths(t, primary.url+"/v1/cluster/metrics"))
	})
}
