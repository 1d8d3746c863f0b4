package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/store"
)

// testNode is one in-process cluster member: a real Server behind a
// real httptest listener, with its own store and cluster view. Probers
// are never started — tests drive liveness deterministically through
// ReportFailure/ReportSuccess (FailAfter is 1, so one reported
// transport failure marks a peer down, exactly like one failed proxy
// does in production with -cluster-fail-after 1).
type testNode struct {
	slot  *atomic.Pointer[Server]
	ts    *httptest.Server
	url   string
	dir   string
	peers []string
	repl  int
}

func (n *testNode) srv() *Server        { return n.slot.Load() }
func (n *testNode) c() *cluster.Cluster { return n.srv().Cluster() }
func (n *testNode) reg() *Registry      { return n.srv().Registry() }

// restart models a crash + reboot of the node: a fresh Server recovers
// the same data directory (fresh cluster epochs, fresh sync state) and
// takes over the same URL. The previous Server object is simply
// abandoned, like a dead process.
func (n *testNode) restart(t *testing.T) {
	t.Helper()
	srv := NewServer(ManagerConfig{MaxInflight: 4, CacheEntries: 64, DefaultTimeout: 30 * time.Second})
	st, err := store.Open(store.Options{Dir: n.dir})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachStore(st)
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Self: n.url, Peers: n.peers, Replicas: n.repl, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachCluster(c, ClusterOptions{ReplicationTimeout: 5 * time.Second})
	n.slot.Store(srv)
}

// newTestCluster boots n in-process nodes with placement size
// replicas. Each node has a data directory (replication appends to
// real WALs; catch-up serves real tails). Probers are never started —
// tests drive liveness deterministically via Report*.
func newTestCluster(t *testing.T, n, replicas int) []*testNode {
	t.Helper()
	return newTestClusterLease(t, n, replicas, 0)
}

// newTestClusterLease is newTestCluster with primary write leases of
// the given term (0 disables them, like the default harness).
func newTestClusterLease(t *testing.T, n, replicas int, lease time.Duration) []*testNode {
	t.Helper()
	slots := make([]atomic.Pointer[Server], n)
	nodes := make([]*testNode, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s := slots[i].Load()
			if s == nil {
				http.Error(w, "booting", http.StatusServiceUnavailable)
				return
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		nodes[i] = &testNode{slot: &slots[i], ts: ts, url: ts.URL, dir: t.TempDir(), repl: replicas}
		urls[i] = ts.URL
	}
	for i := 0; i < n; i++ {
		nodes[i].peers = urls
		srv := NewServer(ManagerConfig{MaxInflight: 4, CacheEntries: 64, DefaultTimeout: 30 * time.Second})
		st, err := store.Open(store.Options{Dir: nodes[i].dir})
		if err != nil {
			t.Fatal(err)
		}
		srv.AttachStore(st)
		c, err := cluster.New(cluster.Config{
			Self:          urls[i],
			Peers:         urls,
			Replicas:      replicas,
			FailAfter:     1,
			LeaseDuration: lease,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.AttachCluster(c, ClusterOptions{ReplicationTimeout: 5 * time.Second})
		slots[i].Store(srv)
	}
	return nodes
}

// orderNodes returns the cluster's rendezvous order for graph as
// testNodes (placement prefix first).
func orderNodes(nodes []*testNode, graphName string) []*testNode {
	byURL := map[string]*testNode{}
	for _, n := range nodes {
		byURL[n.url] = n
	}
	var out []*testNode
	for _, u := range nodes[0].c().Order(graphName) {
		out = append(out, byURL[u])
	}
	return out
}

func clusterMetrics(t *testing.T, n *testNode) ClusterMetrics {
	t.Helper()
	m := n.srv().SnapshotMetrics()
	if m.Cluster == nil {
		t.Fatal("no cluster metrics on a cluster node")
	}
	return *m.Cluster
}

func markDown(n *testNode, peer string) {
	n.c().ReportFailure(peer, fmt.Errorf("test: simulated failure"))
}

func TestClusterProxyRegistrationReplicationAndReads(t *testing.T) {
	nodes := newTestCluster(t, 3, 2)
	const g = "clusterg"
	order := orderNodes(nodes, g)
	primary, replica, outsider := order[0], order[1], order[2]

	// Register via the non-placement node: the write must be proxied to
	// the primary and fanned out to the replica, never stored locally.
	resp, body := postJSON(t, outsider.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register via outsider: %d %s", resp.StatusCode, body)
	}
	for _, tc := range []struct {
		n    *testNode
		want bool
	}{{primary, true}, {replica, true}, {outsider, false}} {
		_, err := tc.n.reg().Get(g)
		if (err == nil) != tc.want {
			t.Fatalf("node %s holds graph = %v, want %v", tc.n.url, err == nil, tc.want)
		}
	}
	if m := clusterMetrics(t, outsider); m.Proxied == 0 {
		t.Fatal("outsider never proxied")
	}

	// Mutate via the outsider: proxied to the primary, applied there,
	// synchronously replicated to the replica before the ack.
	mreq := MutateRequest{AddEdges: [][2]uint32{{0, 1}, {1, 2}}, IncludeColors: true}
	resp, body = postJSON(t, outsider.url+"/v1/graphs/"+g+"/mutate", mreq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate via outsider: %d %s", resp.StatusCode, body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 1 || mresp.Replicated != 1 {
		t.Fatalf("mutate: version %d replicated %d, want 1/1", mresp.Version, mresp.Replicated)
	}
	for _, n := range []*testNode{primary, replica} {
		e, err := n.reg().Get(g)
		if err != nil || e.Version() != 1 {
			t.Fatalf("node %s at version %v (err %v), want 1", n.url, e.Version(), err)
		}
	}

	// Reads from every node return the identical coloring for the same
	// key: the primary and replica serve locally, the outsider proxies.
	var ref []uint32
	for i, n := range nodes {
		resp, body = postJSON(t, n.url+"/v1/color", ColorRequest{Graph: g, Algorithm: "JP-ADG", Seed: 7, IncludeColors: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("color via node %d: %d %s", i, resp.StatusCode, body)
		}
		var cr ColorResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.GraphVersion != 1 {
			t.Fatalf("node %d served version %d, want 1", i, cr.GraphVersion)
		}
		if i == 0 {
			ref = cr.Colors
		} else if len(cr.Colors) != len(ref) {
			t.Fatalf("node %d returned %d colors, want %d", i, len(cr.Colors), len(ref))
		} else {
			for v := range ref {
				if cr.Colors[v] != ref[v] {
					t.Fatalf("node %d disagrees at vertex %d", i, v)
				}
			}
		}
	}

	// GET /v1/graphs/{id} proxies too.
	r, err := http.Get(outsider.url + "/v1/graphs/" + g)
	if err != nil {
		t.Fatal(err)
	}
	var info graphInfo
	if err := json.NewDecoder(r.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if info.Version != 1 {
		t.Fatalf("proxied graph info at version %d, want 1", info.Version)
	}

	// The primary's status shows the replica's ack watermark.
	r, err = http.Get(primary.url + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Enabled bool `json:"enabled"`
		Graphs  []struct {
			Name       string            `json:"name"`
			Role       string            `json:"role"`
			Watermarks map[string]uint64 `json:"watermarks"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if !status.Enabled || len(status.Graphs) != 1 {
		t.Fatalf("status = %+v", status)
	}
	if status.Graphs[0].Role != "primary" || status.Graphs[0].Watermarks[replica.url] != 1 {
		t.Fatalf("primary status = %+v, want role primary with replica watermark 1", status.Graphs[0])
	}
}

func TestClusterFailoverPromotionCatchesUpFromPeerWAL(t *testing.T) {
	nodes := newTestCluster(t, 3, 3) // every node is in the placement set
	const g = "failover"
	order := orderNodes(nodes, g)
	a, b, c := order[0], order[1], order[2]

	if _, body := postJSON(t, c.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); len(body) == 0 {
		t.Fatal("registration returned empty body")
	}
	// Partition replica b out of a's view, then apply three batches at
	// the primary: they replicate to c only — b stays at version 0.
	markDown(a, b.url)
	for i := 0; i < 3; i++ {
		mreq := MutateRequest{AddEdges: [][2]uint32{{uint32(i), uint32(i + 10)}}}
		resp, body := postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", mreq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d: %d %s", i, resp.StatusCode, body)
		}
	}
	if e, _ := b.reg().Get(g); e.Version() != 0 {
		t.Fatalf("partitioned replica advanced to %d", e.Version())
	}
	if e, _ := c.reg().Get(g); e.Version() != 3 {
		t.Fatalf("in-sync replica at %d, want 3", e.Version())
	}

	// Primary dies (b and c mark it down). The next node in rendezvous
	// order is b — which missed every batch. Before acting as primary
	// it must replay the tail from c's WAL; the write then lands at
	// version 4 with zero acked batches lost.
	markDown(b, a.url)
	markDown(c, a.url)
	resp, body := postJSON(t, c.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{5, 6}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover mutate: %d %s", resp.StatusCode, body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 4 {
		t.Fatalf("post-failover version %d, want 4 (promotion lost acked batches?)", mresp.Version)
	}
	if m := clusterMetrics(t, b); m.CatchupBatches != 3 {
		t.Fatalf("promoted node pulled %d catch-up batches, want 3", m.CatchupBatches)
	}
	// Both survivors converge and serve the identical coloring.
	for _, n := range []*testNode{b, c} {
		e, _ := n.reg().Get(g)
		if e.Version() != 4 {
			t.Fatalf("survivor %s at version %d, want 4", n.url, e.Version())
		}
	}
	var ref []uint32
	for i, n := range []*testNode{b, c} {
		resp, body := postJSON(t, n.url+"/v1/color", ColorRequest{Graph: g, Algorithm: "JP-ADG", Seed: 3, IncludeColors: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor color: %d %s", resp.StatusCode, body)
		}
		var cr ColorResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.GraphVersion != 4 {
			t.Fatalf("survivor %d served version %d", i, cr.GraphVersion)
		}
		if i == 0 {
			ref = cr.Colors
		} else {
			for v := range ref {
				if cr.Colors[v] != ref[v] {
					t.Fatalf("survivors disagree at vertex %d after failover", v)
				}
			}
		}
	}

	// The old primary rejoins the way a kill -9'd process does: restart
	// on its own data directory (recovering its WAL to the pre-crash
	// version 3), get marked alive again, and — because rendezvous
	// order makes it the primary once more — catch up to the acked
	// watermark (version 4, which only its peers hold) before minting
	// version 5 for the next write.
	a.restart(t)
	if e, _ := a.reg().Get(g); e.Version() != 3 {
		t.Fatalf("restarted node recovered to version %d, want its own pre-crash 3", e.Version())
	}
	b.c().ReportSuccess(a.url)
	c.c().ReportSuccess(a.url)
	resp, body = postJSON(t, c.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{7, 8}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rejoin mutate: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 5 {
		t.Fatalf("rejoin mutate minted version %d, want 5 (rejoined primary skipped catch-up?)", mresp.Version)
	}
	if m := clusterMetrics(t, a); m.CatchupBatches != 1 {
		t.Fatalf("rejoined node pulled %d catch-up batches, want 1 (version 4)", m.CatchupBatches)
	}
	for _, n := range []*testNode{a, b, c} {
		e, _ := n.reg().Get(g)
		if e.Version() != 5 {
			t.Fatalf("node %s at version %d after rejoin, want 5", n.url, e.Version())
		}
	}
}

func TestClusterHopGuardRejectsDoubleForward(t *testing.T) {
	nodes := newTestCluster(t, 3, 2)
	const g = "hopg"
	order := orderNodes(nodes, g)
	outsider := order[2]

	// A forwarded write landing on a node that is not the active
	// primary must be rejected, not forwarded again.
	req, _ := http.NewRequest(http.MethodPost, outsider.url+"/v1/graphs/"+g+"/mutate",
		strings.NewReader(`{"addEdges":[[0,1]]}`))
	req.Header.Set(forwardedHeader, "http://elsewhere.invalid")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forwarded write to non-owner: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("hop rejection carries no Retry-After")
	}
	// Same for a forwarded read the node cannot serve.
	req, _ = http.NewRequest(http.MethodPost, outsider.url+"/v1/color",
		strings.NewReader(fmt.Sprintf(`{"graph":%q,"algorithm":"JP-ADG"}`, g)))
	req.Header.Set(forwardedHeader, "http://elsewhere.invalid")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("forwarded read to non-holder: %d, want 503", resp.StatusCode)
	}
	if m := clusterMetrics(t, outsider); m.HopRejections != 2 {
		t.Fatalf("hopRejections = %d, want 2", m.HopRejections)
	}
}

func TestClusterPeerDownMidProxyFailsOverOnRetry(t *testing.T) {
	nodes := newTestCluster(t, 3, 2)
	const g = "pdown"
	order := orderNodes(nodes, g)
	primary, replica, outsider := order[0], order[1], order[2]

	if resp, body := postJSON(t, outsider.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// Pick a seed whose cache key homes on the primary: reads are
	// key-routed now, and this test wants the proxied read to target
	// the node it is about to kill.
	req := ColorRequest{Graph: g, Algorithm: "JP-ADG", Seed: 1}
	for outsider.c().KeyOrder(g, colorRouteKey(req))[0] != primary.url {
		req.Seed++
	}
	// Kill the primary's listener. The proxied request hits the dead
	// socket; the transport failure marks the primary down (FailAfter=1)
	// and the proxy re-resolves to the key's next home — the replica —
	// and retries INSIDE the same client request: the client sees one
	// success, not a 502 it must retry itself.
	primary.ts.Close()
	resp, body := postJSON(t, outsider.url+"/v1/color", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy with in-flight failover: %d %s, want 200", resp.StatusCode, body)
	}
	if outsider.c().Alive(primary.url) {
		t.Fatal("failed proxy did not feed liveness")
	}
	// Writes fail over too: the replica promotes (its only peer is the
	// dead primary, so ensureSynced has nothing to pull and proceeds).
	markDown(replica, primary.url)
	resp, body = postJSON(t, outsider.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-failover mutate: %d %s", resp.StatusCode, body)
	}
}

func TestClusterReplicationAckTimeout(t *testing.T) {
	// A hanging replica must cost one replication timeout, not wedge
	// the write path: the mutation still acks with replicated=0 and the
	// error is gauged.
	stallDone := make(chan struct{})
	var slot atomic.Pointer[Server]
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/internal/replicate":
			<-stallDone // hang past the replication timeout
			http.Error(w, "too late", http.StatusServiceUnavailable)
		default:
			fmt.Fprint(w, `{"status":"ok"}`)
		}
	}))
	defer stub.Close()
	// Deferred LIFO: the stall must be released before stub.Close waits
	// out the hanging handler.
	defer close(stallDone)
	real := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slot.Load().Handler().ServeHTTP(w, r)
	}))
	defer real.Close()

	srv := NewServer(ManagerConfig{MaxInflight: 2, CacheEntries: 16, DefaultTimeout: 30 * time.Second})
	c, err := cluster.New(cluster.Config{Self: real.URL, Peers: []string{real.URL, stub.URL}, Replicas: 2, FailAfter: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachCluster(c, ClusterOptions{ReplicationTimeout: 150 * time.Millisecond})
	slot.Store(srv)

	// Find a graph this node is primary for.
	g := ""
	for i := 0; ; i++ {
		g = fmt.Sprintf("tmo%d", i)
		if c.IsActivePrimary(g) {
			break
		}
	}
	if resp, body := postJSON(t, real.URL+"/v1/graphs", map[string]string{"name": g, "spec": "kron:7"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	start := time.Now()
	resp, body := postJSON(t, real.URL+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate with hanging replica: %d %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("mutate stalled %v behind a hanging replica", elapsed)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Replicated != 0 {
		t.Fatalf("replicated = %d, want 0 (replica timed out)", mresp.Replicated)
	}
	m := srv.SnapshotMetrics()
	if m.Cluster.ReplicationErrors == 0 {
		t.Fatal("replication timeout not gauged")
	}
}

func TestClusterFanoutOverlapsReplicasInVersionOrder(t *testing.T) {
	// Two stub replicas each hold a replicate or registration request
	// until the other stub has received the same request, so only a
	// concurrent fan-out passes: a sequential one leaves the first stub
	// waiting out the rendezvous.
	const rendezvousTimeout = 5 * time.Second
	var (
		slot    atomic.Pointer[Server]
		persist atomic.Bool
		mu      sync.Mutex
		arrived = map[string]int{}           // request -> bitmask of the stubs that received it
		both    = map[string]chan struct{}{} // closed once both stubs received the request
		gotVers [2][]uint64
	)
	rendezvous := func(stub int, key string) {
		mu.Lock()
		ch := both[key]
		if ch == nil {
			ch = make(chan struct{})
			both[key] = ch
		}
		prev := arrived[key]
		arrived[key] |= 1 << stub
		if prev != 3 && arrived[key] == 3 {
			close(ch)
		}
		mu.Unlock()
		select {
		case <-ch:
		case <-time.After(rendezvousTimeout):
			t.Errorf("stub %d waited %v for the other stub to receive %s: the fan-out is sequential", stub, rendezvousTimeout, key)
		}
	}
	var stubs [2]*httptest.Server
	for i := range stubs {
		stubs[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/graphs":
				rendezvous(i, "the registration")
				fmt.Fprint(w, `{"status":"ok"}`)
			case "/v1/internal/replicate":
				var req replicateRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				mu.Lock()
				gotVers[i] = append(gotVers[i], req.Version)
				mu.Unlock()
				rendezvous(i, fmt.Sprintf("version %d", req.Version))
				json.NewEncoder(w).Encode(replicateResponse{
					Graph: req.Graph, Version: req.Version,
					Persisted: persist.Load(), Applied: true,
				})
			default:
				fmt.Fprint(w, `{"status":"ok"}`)
			}
		}))
		defer stubs[i].Close()
	}
	real := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slot.Load().Handler().ServeHTTP(w, r)
	}))
	defer real.Close()

	srv := NewServer(ManagerConfig{MaxInflight: 2, CacheEntries: 16, DefaultTimeout: 30 * time.Second})
	c, err := cluster.New(cluster.Config{Self: real.URL, Peers: []string{real.URL, stubs[0].URL, stubs[1].URL}, Replicas: 3, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachCluster(c, ClusterOptions{ReplicationTimeout: 2 * rendezvousTimeout})
	slot.Store(srv)

	// Find a graph this node is the active primary for.
	g := ""
	for i := 0; ; i++ {
		g = fmt.Sprintf("fanout%d", i)
		if c.IsActivePrimary(g) {
			break
		}
	}
	if resp, body := postJSON(t, real.URL+"/v1/graphs", map[string]string{"name": g, "spec": "kron:7"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}

	mutate := func(wantVersion uint64) MutateResponse {
		t.Helper()
		resp, body := postJSON(t, real.URL+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{uint32(wantVersion), uint32(wantVersion + 20)}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate: %d %s", resp.StatusCode, body)
		}
		var mresp MutateResponse
		if err := json.Unmarshal(body, &mresp); err != nil {
			t.Fatal(err)
		}
		if mresp.Version != wantVersion {
			t.Fatalf("mutate minted version %d, want %d", mresp.Version, wantVersion)
		}
		return mresp
	}
	watermarks := func() map[string]uint64 {
		t.Helper()
		resp, body := getBody(t, real.URL+"/v1/cluster/status")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: %d %s", resp.StatusCode, body)
		}
		var status struct {
			Graphs []struct {
				Name       string            `json:"name"`
				Watermarks map[string]uint64 `json:"watermarks"`
			} `json:"graphs"`
		}
		if err := json.Unmarshal(body, &status); err != nil {
			t.Fatal(err)
		}
		for _, sg := range status.Graphs {
			if sg.Name == g {
				return sg.Watermarks
			}
		}
		t.Fatalf("graph %q missing from status", g)
		return nil
	}
	wantMarks := func(v uint64) map[string]uint64 {
		return map[string]uint64{stubs[0].URL: v, stubs[1].URL: v}
	}

	// Durable-ack contract: a replica that applies but does NOT persist
	// must not count toward the replicated watermark.
	persist.Store(false)
	if mresp := mutate(1); mresp.Replicated != 0 {
		t.Fatalf("non-durable ack counted: replicated = %d, want 0", mresp.Replicated)
	}
	if w := watermarks(); !maps.Equal(w, wantMarks(0)) {
		t.Fatalf("watermarks = %v on non-durable acks, want both stubs at the registration's 0", w)
	}
	persist.Store(true)
	for v := uint64(2); v <= 5; v++ {
		if mresp := mutate(v); mresp.Replicated != 2 {
			t.Fatalf("durable acks not counted: replicated = %d, want 2", mresp.Replicated)
		}
		if w := watermarks(); !maps.Equal(w, wantMarks(v)) {
			t.Fatalf("watermarks = %v after durable acks of version %d", w, v)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	for i, vers := range gotVers {
		if !slices.Equal(vers, []uint64{1, 2, 3, 4, 5}) {
			t.Errorf("stub %d received versions %v, want 1..5 in order", i, vers)
		}
	}
}

func TestClusterDivergenceDetectedOnPromotionRace(t *testing.T) {
	nodes := newTestCluster(t, 2, 2)
	a, b := nodes[0], nodes[1]
	const g = "race"
	// Make sure a is the rendezvous primary for naming clarity.
	order := orderNodes(nodes, g)
	a, b = order[0], order[1]

	if resp, body := postJSON(t, a.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:7"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// Split brain: a mutual partition inside one probe window. Each
	// node believes the other is dead and accepts a DIFFERENT batch as
	// version 1 — the fork the fail-stop model cannot prevent.
	markDown(b, a.url)
	markDown(a, b.url)
	if resp, body := postJSON(t, b.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate at b: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{2, 3}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate at a: %d %s", resp.StatusCode, body)
	}
	// The partition heals on a's side: a's next batch replicates to b
	// carrying the hash of a's version-1 batch, which b can prove
	// differs from its own version 1 — 409, recorded as diverged, and
	// never silently merged. (The version check alone cannot see this:
	// both sit at version 1.)
	a.c().ReportSuccess(b.url)
	if resp, body := postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{4, 5}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("second mutate at a: %d %s", resp.StatusCode, body)
	}
	r, err := http.Get(a.url + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Graphs []struct {
			Name     string            `json:"name"`
			Diverged map[string]string `json:"diverged"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(status.Graphs) != 1 || len(status.Graphs[0].Diverged) == 0 {
		t.Fatalf("fork not surfaced in status: %+v", status.Graphs)
	}
	if m := clusterMetrics(t, a); m.ReplicationErrors == 0 {
		t.Fatal("divergence not gauged as a replication error")
	}
}

func TestClusterReadOfMissingGraphIs404EveryNode(t *testing.T) {
	// A read for a graph that exists nowhere must be a 404 from every
	// node — the primary answers locally, non-owners proxy and relay
	// the primary's 404 — never a retryable 503 (a typo'd name would
	// otherwise make well-behaved clients retry forever).
	nodes := newTestCluster(t, 3, 2)
	const g = "nosuchgraph"
	for i, n := range nodes {
		resp, body := postJSON(t, n.url+"/v1/color", ColorRequest{Graph: g, Algorithm: "JP-ADG"})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("color of missing graph via node %d: %d %s, want 404", i, resp.StatusCode, body)
		}
		r, err := http.Get(n.url + "/v1/graphs/" + g)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("info of missing graph via node %d: %d, want 404", i, r.StatusCode)
		}
	}
}

func TestClusterForkedTailResyncsViaSnapshot(t *testing.T) {
	// A rejoining node whose own head batch differs from the peer's
	// record at the same version still refuses to STACK the peer's tail
	// onto a different base (silent fork merge would serve colorings of
	// a graph no single history ever produced) — but because the peer
	// is provably ahead, the refusal now escalates to adopting the
	// peer's full snapshot: the node discards its forked head, resumes
	// on the acked chain, and the write succeeds with zero manual steps.
	nodes := newTestCluster(t, 2, 2)
	const g = "forked"
	order := orderNodes(nodes, g)
	a, b := order[0], order[1]
	if resp, body := postJSON(t, a.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:7"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// Mutual partition: a applies its v1; b applies a different v1 AND
	// a v2 (b runs ahead — b's chain is the one with more acked state).
	markDown(a, b.url)
	markDown(b, a.url)
	if resp, body := postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{2, 3}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate at a: %d %s", resp.StatusCode, body)
	}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, b.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{uint32(i), uint32(i + 10)}}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d at b: %d %s", i, resp.StatusCode, body)
		}
	}
	// Heal a's view: its next write re-syncs, sees b ahead (version 2 >
	// 1), pulls the tail with one record of overlap — the overlap hash
	// proves the chains forked at version 1, and the resync engine ships
	// b's snapshot instead of merging. The write then lands as v3 on b's
	// chain.
	a.c().ReportSuccess(b.url)
	resp, body := postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{4, 5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write on forked node after resync: %d %s, want 200", resp.StatusCode, body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 3 {
		t.Fatalf("post-resync write minted version %d, want 3 (b's v2 + 1)", mresp.Version)
	}
	if m := clusterMetrics(t, a); m.Resyncs != 1 {
		t.Fatalf("forked node recorded %d resyncs, want 1", m.Resyncs)
	}
	// Both nodes converge on the adopted chain, and a's replication of
	// v3 was applied fresh on b — which clears any divergence record.
	for _, n := range []*testNode{a, b} {
		e, _ := n.reg().Get(g)
		if e.Version() != 3 {
			t.Fatalf("node %s at version %d, want 3", n.url, e.Version())
		}
	}
	r, err := http.Get(a.url + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Graphs []struct {
			Diverged map[string]string `json:"diverged"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(status.Graphs) != 1 || len(status.Graphs[0].Diverged) != 0 {
		t.Fatalf("divergence record survived the resync: %+v", status.Graphs)
	}
	// The adopted state is durable: a restart of a recovers the
	// converged version, not the forked one.
	a.restart(t)
	if e, _ := a.reg().Get(g); e.Version() != 3 {
		t.Fatalf("restarted node recovered version %d, want 3 (resync not folded into the store)", e.Version())
	}
}

func TestClusterPrimaryThatMissedRegistrationBootstrapsFromPeers(t *testing.T) {
	// The rendezvous-first node is down when a spec graph is
	// registered; the next-in-order node registers and holds it. When
	// the first node comes back it is the active primary again but
	// holds nothing — it must rebuild from the peers' spec and catch up
	// from their WAL tail instead of 404ing the graph's writes forever.
	nodes := newTestCluster(t, 3, 2)
	const g = "missedreg"
	order := orderNodes(nodes, g)
	a, b, c := order[0], order[1], order[2]

	// a is "down" in everyone's view: registration routes to b.
	markDown(b, a.url)
	markDown(c, a.url)
	if resp, body := postJSON(t, c.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register with primary down: %d %s", resp.StatusCode, body)
	}
	// b applied a batch as acting primary; a missed all of it.
	if resp, body := postJSON(t, c.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate with primary down: %d %s", resp.StatusCode, body)
	}
	if _, err := a.reg().Get(g); err == nil {
		t.Fatal("down node somehow holds the graph")
	}

	// a rejoins. The next write routes to it; it must bootstrap (spec +
	// tail) and mint version 2 on top of b's version 1.
	b.c().ReportSuccess(a.url)
	c.c().ReportSuccess(a.url)
	resp, body := postJSON(t, c.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{2, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate after rejoin: %d %s", resp.StatusCode, body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 2 {
		t.Fatalf("rejoined primary minted version %d, want 2 (bootstrap or catch-up failed)", mresp.Version)
	}
	e, err := a.reg().Get(g)
	if err != nil || e.Version() != 2 {
		t.Fatalf("rejoined primary holds version %v (err %v), want 2", e.Version(), err)
	}
	// Reads route to it and serve, too.
	resp, body = postJSON(t, c.url+"/v1/color", ColorRequest{Graph: g, Algorithm: "JP-ADG", Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read after rejoin: %d %s", resp.StatusCode, body)
	}
}

func TestClusterInternalEndpointValidation(t *testing.T) {
	// Without a cluster attached the internal endpoints refuse politely
	// and status reports disabled — single-node behavior is unchanged.
	srv, ts := newTestServer(t, ManagerConfig{MaxInflight: 2})
	_ = srv
	resp, _ := postJSON(t, ts.URL+"/v1/internal/replicate", map[string]string{"graph": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("replicate without cluster: %d, want 400", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]interface{}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st["enabled"] != false {
		t.Fatalf("status on single node: %v", st)
	}

	nodes := newTestCluster(t, 2, 2)
	n := nodes[0]
	// Bad base64 and bad batch bytes are 400s.
	for _, payload := range []string{
		`{"graph":"g","version":1,"batch":"!!!"}`,
		`{"graph":"g","version":1,"batch":"AAAA"}`,
	} {
		resp, err := http.Post(n.url+"/v1/internal/replicate", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("replicate %s: %d, want 400", payload, resp.StatusCode)
		}
	}
	// Tail requires graph+after; version requires a registered graph.
	r, _ = http.Get(n.url + "/v1/internal/tail?graph=")
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("tail without params: %d", r.StatusCode)
	}
	r.Body.Close()
	r, _ = http.Get(n.url + "/v1/internal/version?graph=nope")
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("version of unknown graph: %d", r.StatusCode)
	}
	r.Body.Close()
}

func TestClusterSingleNodePeersBehavesLikeStandalone(t *testing.T) {
	// -cluster-peers naming only this node: every graph is owned
	// locally, nothing proxies or replicates.
	var slot atomic.Pointer[Server]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slot.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	srv := NewServer(ManagerConfig{MaxInflight: 2, CacheEntries: 16})
	c, err := cluster.New(cluster.Config{Self: ts.URL, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachCluster(c, ClusterOptions{})
	slot.Store(srv)

	if resp, body := postJSON(t, ts.URL+"/v1/graphs", map[string]string{"name": "solo", "spec": "kron:7"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/v1/graphs/solo/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 1 || mresp.Replicated != 0 {
		t.Fatalf("solo mutate: %+v", mresp)
	}
	m := srv.SnapshotMetrics()
	if m.Cluster.Proxied != 0 || m.Cluster.ReplicationErrors != 0 {
		t.Fatalf("solo cluster proxied/errored: %+v", m.Cluster)
	}
}

func TestGzipUploadRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, ManagerConfig{MaxInflight: 2})

	// A small known graph as an edge-list payload: the triangle plus a
	// pendant. Upload it gzip-compressed and verify the parsed shape
	// and a proper coloring come back — the graphio round trip through
	// the compressed transport.
	edges := "0 1\n1 2\n2 0\n2 3\n"
	reqBody, err := json.Marshal(map[string]string{"name": "gz", "format": "edgelist", "data": edges})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(reqBody); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/graphs", &buf)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var info graphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip upload: %d", resp.StatusCode)
	}
	if info.N != 4 || info.M != 4 {
		t.Fatalf("gzip upload parsed to n=%d m=%d, want 4/4", info.N, info.M)
	}
	cresp, body := postJSON(t, ts.URL+"/v1/color", ColorRequest{Graph: "gz", Algorithm: "JP-ADG", IncludeColors: true})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("coloring gzip-uploaded graph: %d %s", cresp.StatusCode, body)
	}
	var cr ColorResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	// The triangle forces three colors; verify properness directly.
	if cr.NumColors < 3 {
		t.Fatalf("triangle colored with %d colors", cr.NumColors)
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}} {
		if cr.Colors[e[0]] == cr.Colors[e[1]] {
			t.Fatalf("monochromatic edge %v", e)
		}
	}

	// Garbage gzip bytes and unsupported encodings are 400s.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/graphs", strings.NewReader("not gzip"))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage gzip: %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/graphs", strings.NewReader("{}"))
	req.Header.Set("Content-Encoding", "zstd")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsupported encoding: %d, want 400", resp.StatusCode)
	}
}

func TestBatchHashDetectsDifferentBatches(t *testing.T) {
	b1 := dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 1}}}
	b2 := dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 2}}}
	if batchHash(1, &b1) == batchHash(1, &b2) {
		t.Fatal("different batches hash equal")
	}
	if batchHash(1, &b1) == batchHash(2, &b1) {
		t.Fatal("same batch at different versions hashes equal")
	}
	if batchHash(1, &b1) != batchHash(1, &b1) {
		t.Fatal("hash is not deterministic")
	}
}

// TestClusterLeaseFencesDemotedPrimary is the split-brain regression
// test for primary write leases: a primary that is partitioned out of
// its peers' views keeps serving until its lease term lapses, and from
// then on FENCES ITSELF — it cannot assemble a majority of grants, so
// it refuses writes with 503 instead of acking a forking history.
func TestClusterLeaseFencesDemotedPrimary(t *testing.T) {
	const lease = 300 * time.Millisecond
	nodes := newTestClusterLease(t, 3, 3, lease)
	const g = "leaseg"
	order := orderNodes(nodes, g)
	a, b, c := order[0], order[1], order[2]

	if resp, body := postJSON(t, a.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:8"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// A healthy write renews the lease (self-grant + one peer = majority).
	resp, body := postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 1}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy mutate: %d %s", resp.StatusCode, body)
	}
	if m := clusterMetrics(t, a); m.LeaseRenewals < 1 {
		t.Fatalf("healthy primary renewed %d leases, want >=1", m.LeaseRenewals)
	}

	// Partition a away from b and c — symmetric, like a real network
	// split: b and c stop seeing a AND a stops seeing them. a still
	// believes it is the active primary (it is always alive in its own
	// view). Let its cached lease term run out, then write to it
	// DIRECTLY (the worst case: a client still pointed at the deposed
	// primary).
	markDown(b, a.url)
	markDown(c, a.url)
	markDown(a, b.url)
	markDown(a, c.url)
	time.Sleep(lease + 100*time.Millisecond)
	resp, body = postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{2, 3}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deposed primary acked a forking write: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "fenced") {
		t.Fatalf("fencing error does not say so: %s", body)
	}
	if m := clusterMetrics(t, a); m.LeaseFenced < 1 {
		t.Fatalf("LeaseFenced = %d, want >=1", m.LeaseFenced)
	}
	if e, _ := a.reg().Get(g); e.Version() != 1 {
		t.Fatalf("fenced write still bumped the version to %d", e.Version())
	}

	// The majority side keeps making progress: a write routed through c
	// lands on the promoted primary b, which CAN assemble a majority
	// (itself + c).
	resp, body = postJSON(t, c.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{4, 5}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("majority-side mutate: %d %s", resp.StatusCode, body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 2 {
		t.Fatalf("majority-side write minted version %d, want 2", mresp.Version)
	}
	if m := clusterMetrics(t, b); m.LeaseRenewals < 1 {
		t.Fatalf("promoted primary renewed %d leases, want >=1", m.LeaseRenewals)
	}

	// Heal the partition. Rendezvous order makes a the primary again,
	// but b's grant is still unexpired — a's first renewal attempts are
	// refused until the old term runs out (the bounded failover pause),
	// after which a catches up to version 2 and writes version 3.
	b.c().ReportSuccess(a.url)
	c.c().ReportSuccess(a.url)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{6, 7}}})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed primary never re-acquired the lease: %d %s", resp.StatusCode, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 3 {
		t.Fatalf("healed primary minted version %d, want 3 (lost the majority-side write?)", mresp.Version)
	}
	for _, n := range []*testNode{a, b, c} {
		e, _ := n.reg().Get(g)
		if e.Version() != 3 {
			t.Fatalf("node %s at version %d after heal, want 3", n.url, e.Version())
		}
	}
}

func TestClusterCompactedWALResyncsViaSnapshot(t *testing.T) {
	// A replica that misses writes which the primary then compacts away
	// cannot be healed by a WAL tail — the records no longer exist
	// anywhere. The resync engine ships the primary's durable snapshot
	// instead: the replica adopts it, replays the (empty) tail past it,
	// and applies the next live batch, all inside the primary's write.
	nodes := newTestCluster(t, 3, 3)
	const g = "compacted"
	order := orderNodes(nodes, g)
	a, b := order[0], order[1]
	if resp, body := postJSON(t, a.url+"/v1/graphs", map[string]string{"name": g, "spec": "kron:7"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	// Partition b from a's view only: a's mutations skip b (reported
	// down) but still replicate to the third node.
	markDown(a, b.url)
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{uint32(i), uint32(i + 20)}}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d at a: %d %s", i, resp.StatusCode, body)
		}
	}
	// Fold a's WAL into a snapshot at v3: the records b is missing are
	// now gone from a's WAL — tail catch-up alone can no longer heal b.
	if resp, body := postJSON(t, a.url+"/v1/admin/compact", adminCompactRequest{Graph: g}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact at a: %d %s", resp.StatusCode, body)
	}
	if e, _ := b.reg().Get(g); e.Version() != 0 {
		t.Fatalf("partitioned replica at version %d before heal, want 0", e.Version())
	}
	// Heal and write: b's gap (needs v1..v3, a serves none of them)
	// escalates to a snapshot transfer, then the live v4 applies.
	a.c().ReportSuccess(b.url)
	resp, body := postJSON(t, a.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{5, 25}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-heal mutate: %d %s", resp.StatusCode, body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 4 || mresp.Replicated != 2 {
		t.Fatalf("post-heal mutate acked version %d with %d replicas, want 4 with 2", mresp.Version, mresp.Replicated)
	}
	if e, _ := b.reg().Get(g); e.Version() != 4 {
		t.Fatalf("resynced replica at version %d, want 4", e.Version())
	}
	if m := clusterMetrics(t, b); m.Resyncs != 1 {
		t.Fatalf("replica recorded %d resyncs, want 1", m.Resyncs)
	}
	// The snapshot embedded the maintained coloring: the replica's copy
	// must match the primary's exactly.
	ea, _ := a.reg().Get(g)
	eb, _ := b.reg().Get(g)
	ea.mu.Lock()
	ca := ea.dyn.Colors()
	ea.mu.Unlock()
	eb.mu.Lock()
	cb := eb.dyn.Colors()
	eb.mu.Unlock()
	if len(ca) == 0 || len(ca) != len(cb) {
		t.Fatalf("coloring lengths diverge: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("coloring diverges at vertex %d: %d vs %d", i, ca[i], cb[i])
		}
	}
}

func TestClusterUploadGraphResyncsReplicaViaSnapshot(t *testing.T) {
	// Upload-format graphs have no spec a replica can rebuild from — the
	// bytes were POSTed once to the primary. A replica that missed the
	// registration fan-out can therefore only bootstrap via snapshot
	// transfer, which this test forces by hiding the replica during
	// registration.
	nodes := newTestCluster(t, 3, 2)
	const g = "uploaded"
	// Register through node 0 so the fan-out originates from a known
	// view; hide the graph's replica from every node first so no
	// registration reaches it.
	pre := orderNodes(nodes, g)
	primary, replica := pre[0], pre[1]
	for _, n := range nodes {
		if n != replica {
			markDown(n, replica.url)
		}
	}
	if resp, body := postJSON(t, primary.url+"/v1/graphs", map[string]string{"name": g, "format": "edgelist", "data": "0 1\n1 2\n2 0\n1 3\n"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register upload: %d %s", resp.StatusCode, body)
	}
	if _, err := replica.reg().Get(g); err == nil {
		t.Fatal("replica saw the registration despite the partition")
	}
	// Heal: the next write's replication carries no rebuildable spec, so
	// the replica pulls the primary's snapshot (the uploaded bytes at
	// v0 plus its coloring) and then applies v1 on top.
	for _, n := range nodes {
		if n != replica {
			n.c().ReportSuccess(replica.url)
		}
	}
	resp, body := postJSON(t, primary.url+"/v1/graphs/"+g+"/mutate", MutateRequest{AddEdges: [][2]uint32{{0, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate after heal: %d %s", resp.StatusCode, body)
	}
	var mresp MutateResponse
	if err := json.Unmarshal(body, &mresp); err != nil {
		t.Fatal(err)
	}
	if mresp.Version != 1 || mresp.Replicated != 1 {
		t.Fatalf("mutate acked version %d with %d replicas, want 1 with 1", mresp.Version, mresp.Replicated)
	}
	e, err := replica.reg().Get(g)
	if err != nil {
		t.Fatalf("replica never bootstrapped %q: %v", g, err)
	}
	if e.Version() != 1 {
		t.Fatalf("bootstrapped replica at version %d, want 1", e.Version())
	}
	if m := clusterMetrics(t, replica); m.Resyncs != 1 {
		t.Fatalf("replica recorded %d resyncs, want 1", m.Resyncs)
	}
	// The adopted upload survives a replica restart: the resync folded
	// the snapshot into the replica's own store.
	replica.restart(t)
	if e, _ := replica.reg().Get(g); e == nil || e.Version() != 1 {
		t.Fatalf("restarted replica lost the adopted upload graph")
	}
}
