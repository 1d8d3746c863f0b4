package service

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// Tests of the peer state-transfer paths: a replica or a rejoined
// primary that is missing state pulls it from a peer — a WAL tail that
// extends its chain, or a reset to the peer's base (the spec at version
// 0, or a shipped snapshot) followed by the tail above it.

// mustMutateAt posts one batch to node url and fails the test on any
// non-200 answer.
func mustMutateAt(t *testing.T, url, g string, req MutateRequest) MutateResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/graphs/"+g+"/mutate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate %s at %s: %d %s", g, url, resp.StatusCode, body)
	}
	var mr MutateResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	return mr
}

// maintained returns n's maintained coloring of g and its version.
func maintained(t *testing.T, n *testNode, g string) ([]uint32, uint64) {
	t.Helper()
	e, err := n.reg().Get(g)
	if err != nil {
		t.Fatalf("node %s does not hold %q: %v", n.url, g, err)
	}
	colors, _, version, ok := e.MaintainedColors()
	if !ok {
		t.Fatalf("node %s holds no maintained coloring of %q", n.url, g)
	}
	return colors, version
}

// sameColoring fails the test unless nodes a and b hold the identical
// maintained coloring of g at version want.
func sameColoring(t *testing.T, a, b *testNode, g string, want uint64) {
	t.Helper()
	ca, va := maintained(t, a, g)
	cb, vb := maintained(t, b, g)
	if va != want || vb != want {
		t.Fatalf("versions %d (%s) and %d (%s), want both %d", va, a.url, vb, b.url, want)
	}
	if len(ca) != len(cb) {
		t.Fatalf("coloring lengths differ: %d vs %d", len(ca), len(cb))
	}
	for v := range ca {
		if ca[v] != cb[v] {
			t.Fatalf("colorings differ at vertex %d: %d vs %d", v, ca[v], cb[v])
		}
	}
}

func TestClusterReplicaLazilyBootstrapsSpecGraph(t *testing.T) {
	// A replica that missed a spec graph's registration and its first
	// batch rebuilds the graph from the spec the next replication
	// record carries and catches up the missed batch from the sender's
	// WAL — a rebuild, not a snapshot resync.
	nodes := newTestCluster(t, 2, 2)
	const g = "lazyspec"
	order := orderNodes(nodes, g)
	a, b := order[0], order[1]
	markDown(a, b.url)
	if resp, body := postJSON(t, a.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	mustMutateAt(t, a.url, g, MutateRequest{AddEdges: [][2]uint32{{0, 1}, {1, 2}}})
	if _, err := b.reg().Get(g); err == nil {
		t.Fatal("hidden replica saw the registration")
	}
	a.c().ReportSuccess(b.url)
	mr := mustMutateAt(t, a.url, g, MutateRequest{AddEdges: [][2]uint32{{3, 4}}})
	if mr.Version != 2 || mr.Replicated != 1 {
		t.Fatalf("write acked version %d with %d replicas, want 2 with 1", mr.Version, mr.Replicated)
	}
	sameColoring(t, a, b, g, 2)
	if m := clusterMetrics(t, b); m.Resyncs != 0 || m.CatchupBatches != 1 {
		t.Fatalf("replica resyncs %d catch-ups %d, want 0 and 1", m.Resyncs, m.CatchupBatches)
	}
}

func TestClusterRejoinedPrimaryBootstrapsUploadFromSnapshot(t *testing.T) {
	// The rendezvous-first node is down while an upload graph is
	// registered and mutated on the next node. Back up, it is the
	// active primary but holds nothing, and an upload cannot be rebuilt
	// from its spec: it ships the peer's snapshot, replays the tail
	// above it and only then mints the next version.
	nodes := newTestCluster(t, 3, 2)
	const g = "lateupload"
	order := orderNodes(nodes, g)
	a, b, c := order[0], order[1], order[2]
	markDown(b, a.url)
	markDown(c, a.url)
	if resp, body := postJSON(t, c.url+"/v1/graphs", map[string]string{"name": g, "format": "edgelist", "data": "0 1\n1 2\n2 0\n2 3\n3 4\n"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register upload with primary down: %d %s", resp.StatusCode, body)
	}
	mustMutateAt(t, c.url, g, MutateRequest{AddEdges: [][2]uint32{{0, 3}}})
	if _, err := a.reg().Get(g); err == nil {
		t.Fatal("down node holds the graph")
	}
	b.c().ReportSuccess(a.url)
	c.c().ReportSuccess(a.url)
	mr := mustMutateAt(t, c.url, g, MutateRequest{AddEdges: [][2]uint32{{1, 4}}})
	if mr.Version != 2 || mr.Replicated != 1 {
		t.Fatalf("rejoined primary acked version %d with %d replicas, want 2 with 1", mr.Version, mr.Replicated)
	}
	sameColoring(t, a, b, g, 2)
	if m := clusterMetrics(t, a); m.Resyncs != 1 || m.CatchupBatches != 1 {
		t.Fatalf("rejoined primary resyncs %d catch-ups %d, want 1 and 1", m.Resyncs, m.CatchupBatches)
	}
	if resp, body := postJSON(t, c.url+"/v1/color", ColorRequest{Graph: g, Algorithm: "JP-ADG", Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("read after rejoin: %d %s", resp.StatusCode, body)
	}
}

func TestClusterCatchUpAcrossCompactedOverlapRecord(t *testing.T) {
	// The replica's head record is folded into the primary's snapshot,
	// so the one record of overlap the fork check wants is gone. The
	// catch-up must still replay the WAL records above it — no fork
	// verdict, no snapshot transfer.
	nodes := newTestCluster(t, 2, 2)
	const g = "overlap"
	order := orderNodes(nodes, g)
	a, b := order[0], order[1]
	if resp, body := postJSON(t, a.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	if mr := mustMutateAt(t, a.url, g, MutateRequest{AddEdges: [][2]uint32{{0, 1}}}); mr.Replicated != 1 {
		t.Fatalf("first write replicated to %d, want 1", mr.Replicated)
	}
	if resp, body := postJSON(t, a.url+"/v1/admin/compact", adminCompactRequest{Graph: g}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact at a: %d %s", resp.StatusCode, body)
	}
	markDown(a, b.url)
	mustMutateAt(t, a.url, g, MutateRequest{AddEdges: [][2]uint32{{2, 3}}})
	a.c().ReportSuccess(b.url)
	mr := mustMutateAt(t, a.url, g, MutateRequest{AddEdges: [][2]uint32{{4, 5}}})
	if mr.Version != 3 || mr.Replicated != 1 {
		t.Fatalf("write acked version %d with %d replicas, want 3 with 1", mr.Version, mr.Replicated)
	}
	sameColoring(t, a, b, g, 3)
	if m := clusterMetrics(t, b); m.Resyncs != 0 || m.CatchupBatches != 1 {
		t.Fatalf("replica resyncs %d catch-ups %d, want 0 and 1", m.Resyncs, m.CatchupBatches)
	}
}

func TestClusterForkedReplicaHealsWithoutStall(t *testing.T) {
	// A mutual partition lets both nodes accept writes: a applies two
	// batches, b its own two (or one). After the heal a's next write
	// must find b's chain forked, reset b onto a's chain and replicate
	// within the write — with or without a snapshot file at a. Without
	// one, b resets to the spec at version 0 and replays a's WAL, which
	// never waits on the entry lock a holds while it replicates.
	for _, tc := range []struct {
		name     string
		bBatches int
		compact  bool
	}{
		{"same-height", 2, false},
		{"lower", 1, false},
		{"same-height-compacted", 2, true},
		{"lower-compacted", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := newTestCluster(t, 2, 2)
			const g = "forkheal"
			order := orderNodes(nodes, g)
			a, b := order[0], order[1]
			if resp, body := postJSON(t, a.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:7"}); resp.StatusCode != http.StatusOK {
				t.Fatalf("register: %d %s", resp.StatusCode, body)
			}
			markDown(a, b.url)
			markDown(b, a.url)
			for i := 0; i < 2; i++ {
				mustMutateAt(t, a.url, g, MutateRequest{AddEdges: [][2]uint32{{uint32(i), uint32(i + 20)}}})
			}
			for i := 0; i < tc.bBatches; i++ {
				mustMutateAt(t, b.url, g, MutateRequest{AddEdges: [][2]uint32{{uint32(i), uint32(i + 40)}}})
			}
			if tc.compact {
				if resp, body := postJSON(t, a.url+"/v1/admin/compact", adminCompactRequest{Graph: g}); resp.StatusCode != http.StatusOK {
					t.Fatalf("compact at a: %d %s", resp.StatusCode, body)
				}
			}
			a.c().ReportSuccess(b.url)
			b.c().ReportSuccess(a.url)
			start := time.Now()
			mr := mustMutateAt(t, a.url, g, MutateRequest{AddEdges: [][2]uint32{{5, 25}}})
			if elapsed := time.Since(start); elapsed >= time.Second {
				t.Fatalf("healing write took %v, want under 1s", elapsed)
			}
			if mr.Version != 3 || mr.Replicated != 1 {
				t.Fatalf("healing write acked version %d with %d replicas, want 3 with 1", mr.Version, mr.Replicated)
			}
			sameColoring(t, a, b, g, 3)
			if m := clusterMetrics(t, b); m.Resyncs != 1 {
				t.Fatalf("forked replica recorded %d resyncs, want 1", m.Resyncs)
			}
			b.restart(t)
			sameColoring(t, a, b, g, 3)
		})
	}
}

// clique returns the edges of the complete graph on vertices [0, k).
func clique(k int) [][2]uint32 {
	var edges [][2]uint32
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		}
	}
	return edges
}

// qualityMatchesMaintained fails the test unless n's quality tracker
// and its colord_graph_quality_colors series report the distinct color
// count and version of n's maintained coloring of g.
func qualityMatchesMaintained(t *testing.T, n *testNode, g string, wantVersion uint64, minColors int) {
	t.Helper()
	e, err := n.reg().Get(g)
	if err != nil {
		t.Fatal(err)
	}
	_, nc, version, ok := e.MaintainedColors()
	if !ok || version != wantVersion || nc < minColors {
		t.Fatalf("maintained coloring: ok %v, version %d, %d colors; want version %d, >= %d colors", ok, version, nc, wantVersion, minColors)
	}
	st, ok := n.srv().QualityTracker().Get(g)
	if !ok || st.Colors != nc || st.Version != version {
		t.Fatalf("quality tracker %+v (known %v), want %d colors at version %d", st, ok, nc, version)
	}
	if got, ok := promValue(n.srv(), `colord_graph_quality_colors{graph="`+g+`"}`); !ok || got != float64(nc) {
		t.Fatalf("colord_graph_quality_colors = %v (present %v), want %d", got, ok, nc)
	}
}

func TestClusterReplicaQualityTracksReceivedState(t *testing.T) {
	// State a replica receives — a replicated batch, a replayed tail, a
	// reset onto a peer's snapshot — must reach its quality tracker and
	// gauges, exactly like a batch applied locally.
	nodes := newTestCluster(t, 2, 2)
	const g = "replquality"
	order := orderNodes(nodes, g)
	a, b := order[0], order[1]
	if resp, body := postJSON(t, a.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	// A replicated batch: a 40-clique forces at least 40 colors.
	if mr := mustMutateAt(t, a.url, g, MutateRequest{AddEdges: clique(40)}); mr.Replicated != 1 {
		t.Fatalf("clique write replicated to %d, want 1", mr.Replicated)
	}
	qualityMatchesMaintained(t, b, g, 1, 40)

	// A tail catch-up: b misses a 45-clique, then replays it from a.
	markDown(a, b.url)
	mustMutateAt(t, a.url, g, MutateRequest{AddEdges: clique(45)})
	ev, has, err := b.srv().probePeer(a.url, g)
	if err != nil || !has {
		t.Fatalf("probe of a: has %v, err %v", has, err)
	}
	if _, err := b.srv().syncFrom(g, a.url, ev, nil); err != nil {
		t.Fatalf("tail catch-up: %v", err)
	}
	if m := clusterMetrics(t, b); m.CatchupBatches != 1 || m.Resyncs != 0 {
		t.Fatalf("catch-up pulled %d batches with %d resyncs, want 1 and 0", m.CatchupBatches, m.Resyncs)
	}
	qualityMatchesMaintained(t, b, g, 2, 45)

	// A reset: b forks at version 3 while a writes versions 3 and 4 and
	// folds them into a snapshot; b then resets onto that snapshot,
	// with no tail left to replay above it.
	markDown(b, a.url)
	mustMutateAt(t, b.url, g, MutateRequest{AddEdges: [][2]uint32{{100, 200}}})
	mustMutateAt(t, a.url, g, MutateRequest{AddEdges: [][2]uint32{{101, 201}}})
	mustMutateAt(t, a.url, g, MutateRequest{AddEdges: clique(50)})
	if resp, body := postJSON(t, a.url+"/v1/admin/compact", adminCompactRequest{Graph: g}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact at a: %d %s", resp.StatusCode, body)
	}
	if ev, has, err = b.srv().probePeer(a.url, g); err != nil || !has || ev.Fold != 4 {
		t.Fatalf("probe of a: %+v has %v err %v, want fold point 4", ev, has, err)
	}
	if _, err := b.srv().syncFrom(g, a.url, ev, nil); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if m := clusterMetrics(t, b); m.Resyncs != 1 {
		t.Fatalf("reset recorded %d resyncs, want 1", m.Resyncs)
	}
	qualityMatchesMaintained(t, b, g, 4, 50)
	sameColoring(t, a, b, g, 4)
}
