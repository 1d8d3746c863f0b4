package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/verify"
)

// armFaults arms a process-global fault schedule for one test. Tests
// that use it must not run in parallel.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	in, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatalf("faultinject.Parse(%q): %v", spec, err)
	}
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)
}

// newPersistentServer builds a server over a store rooted at dir.
func newPersistentServer(t *testing.T, dir string, cfg ManagerConfig) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(cfg)
	s.AttachStore(st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return s, ts
}

func mutateHTTP(t *testing.T, ts *httptest.Server, graph string, req MutateRequest) MutateResponse {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/graphs/"+graph+"/mutate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", resp.StatusCode, body)
	}
	var out MutateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func colorHTTP(t *testing.T, ts *httptest.Server, req ColorRequest) ColorResponse {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/color", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("color: status %d: %s", resp.StatusCode, body)
	}
	var out ColorResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPersistRecoverEndToEnd is the serving-layer half of the
// crash-recovery contract: register a spec graph and an upload, mutate
// both over HTTP, remember the exact colorings, throw the server away
// (its store left unflushed — only WAL fsyncs protect the batches),
// boot a fresh server on the same directory and require identical
// versions, identical fixed-seed colorings and a proper maintained
// state.
func TestPersistRecoverEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts1, "spec", "kron:7")
	resp, body := postJSON(t, ts1.URL+"/v1/graphs", graphUploadRequest{
		Name: "up", Format: "edgelist", Data: "0 1\n1 2\n2 3\n3 0\n0 2\n",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d: %s", resp.StatusCode, body)
	}

	// Mutate both graphs (the upload twice).
	m1 := mutateHTTP(t, ts1, "spec", MutateRequest{AddEdges: [][2]uint32{{0, 5}, {1, 9}}})
	if m1.Version != 1 {
		t.Fatalf("spec version %d after first mutation", m1.Version)
	}
	mutateHTTP(t, ts1, "up", MutateRequest{AddEdges: [][2]uint32{{1, 3}}})
	m2 := mutateHTTP(t, ts1, "up", MutateRequest{AddVertices: 1, AddEdges: [][2]uint32{{4, 0}}, IncludeColors: true})
	if m2.Version != 2 || m2.N != 5 {
		t.Fatalf("up at version %d n=%d", m2.Version, m2.N)
	}
	before1 := colorHTTP(t, ts1, ColorRequest{Graph: "spec", Algorithm: "JP-ADG", Seed: 3, IncludeColors: true})
	before2 := colorHTTP(t, ts1, ColorRequest{Graph: "up", Algorithm: "JP-ADG", Seed: 3, IncludeColors: true})
	if before1.GraphVersion != 1 || before2.GraphVersion != 2 {
		t.Fatalf("pre-restart versions %d, %d", before1.GraphVersion, before2.GraphVersion)
	}
	ts1.Close()
	// No store.Close(): simulate the crash — only per-batch fsyncs and
	// the atomic registration writes protect the state. (The cleanup's
	// later Close is a harmless no-op on the already-closed test server.)
	_ = s1

	s2, ts2 := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Graphs != 2 || rec.SnapshotLoads != 1 || rec.SpecRebuilds != 1 || rec.ReplayedBatches != 3 {
		t.Fatalf("recovery stats %+v", rec)
	}

	// Versions and shapes survived.
	listResp, err := http.Get(ts2.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var listed struct {
		Graphs []graphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(listResp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Graphs) != 2 {
		t.Fatalf("listed %d graphs", len(listed.Graphs))
	}
	for _, gi := range listed.Graphs {
		if !gi.Persisted {
			t.Fatalf("graph %s not marked persisted after recovery", gi.Name)
		}
	}
	if listed.Graphs[0].Name != "spec" || listed.Graphs[0].Version != 1 ||
		listed.Graphs[1].Name != "up" || listed.Graphs[1].Version != 2 || listed.Graphs[1].N != 5 {
		t.Fatalf("recovered listing %+v", listed.Graphs)
	}

	// The Las Vegas determinism anchor: identical (graph, version,
	// algo, seed, eps) keys reproduce byte-identical colorings across
	// the restart.
	after1 := colorHTTP(t, ts2, ColorRequest{Graph: "spec", Algorithm: "JP-ADG", Seed: 3, IncludeColors: true})
	after2 := colorHTTP(t, ts2, ColorRequest{Graph: "up", Algorithm: "JP-ADG", Seed: 3, IncludeColors: true})
	if after1.GraphVersion != 1 || after2.GraphVersion != 2 {
		t.Fatalf("post-restart versions %d, %d", after1.GraphVersion, after2.GraphVersion)
	}
	if after1.Cached || after2.Cached {
		t.Fatal("post-restart colorings claimed cached (cache must start cold)")
	}
	for i, c := range before1.Colors {
		if after1.Colors[i] != c {
			t.Fatalf("spec coloring diverged at vertex %d", i)
		}
	}
	for i, c := range before2.Colors {
		if after2.Colors[i] != c {
			t.Fatalf("up coloring diverged at vertex %d", i)
		}
	}

	// Mutating continues from the recovered version, and the maintained
	// coloring is proper on the current snapshot.
	m3 := mutateHTTP(t, ts2, "up", MutateRequest{AddEdges: [][2]uint32{{2, 4}}, IncludeColors: true})
	if m3.Version != 3 {
		t.Fatalf("post-recovery mutation reached version %d, want 3", m3.Version)
	}
	e, err := s2.Registry().Get("up")
	if err != nil {
		t.Fatal(err)
	}
	g, ver, err := e.View()
	if err != nil {
		t.Fatal(err)
	}
	if ver != 3 {
		t.Fatalf("entry at version %d", ver)
	}
	if err := verify.CheckProper(g, m3.Colors); err != nil {
		t.Fatalf("maintained coloring after recovery+mutation: %v", err)
	}
}

// TestAdminCompactEndpoint exercises /v1/admin/compact and the
// recovery of a compacted graph (snapshot embeds the coloring; the WAL
// suffix is empty).
func TestAdminCompactEndpoint(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts1, "g", "kron:7")
	want := mutateHTTP(t, ts1, "g", MutateRequest{AddEdges: [][2]uint32{{0, 9}, {2, 7}}, IncludeColors: true})

	resp, body := postJSON(t, ts1.URL+"/v1/admin/compact", adminCompactRequest{Graph: "g"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d: %s", resp.StatusCode, body)
	}
	var cr adminCompactResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Compacted) != 1 || cr.Store.Compactions != 1 || cr.Store.WALRecords != 0 {
		t.Fatalf("compact response %+v", cr)
	}
	// Re-compacting an already-folded graph is a durable no-op: still
	// reported compacted (the snapshot holds this exact version), but no
	// new fold runs — pre-fix this path rewrote snapshot-V.pcs in place
	// and an abort could delete the file meta.json references.
	resp, body = postJSON(t, ts1.URL+"/v1/admin/compact", adminCompactRequest{Graph: "g"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-compact: %d: %s", resp.StatusCode, body)
	}
	var cr2 adminCompactResponse
	if err := json.Unmarshal(body, &cr2); err != nil {
		t.Fatal(err)
	}
	if len(cr2.Compacted) != 1 || len(cr2.Skipped) != 0 || cr2.Store.Compactions != 1 {
		t.Fatalf("re-compact response %+v, want compacted with no second fold", cr2)
	}
	// GET on the endpoint is rejected.
	get, err := http.Get(ts1.URL + "/v1/admin/compact")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET compact: %d", get.StatusCode)
	}
	// Unknown graph 404s.
	resp, _ = postJSON(t, ts1.URL+"/v1/admin/compact", adminCompactRequest{Graph: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("compact unknown graph: %d", resp.StatusCode)
	}
	ts1.Close()
	_ = s1

	// Recovery from the compacted snapshot restores the exact
	// maintained coloring without replaying anything.
	s2, ts2 := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Graphs != 1 || rec.ReplayedBatches != 0 || rec.SnapshotLoads != 1 {
		t.Fatalf("recovery stats %+v", rec)
	}
	m := mutateHTTP(t, ts2, "g", MutateRequest{IncludeColors: true})
	if m.Version != want.Version {
		t.Fatalf("recovered version %d, want %d", m.Version, want.Version)
	}
	for i, c := range want.Colors {
		if m.Colors[i] != c {
			t.Fatalf("maintained coloring diverged at vertex %d after compacted recovery", i)
		}
	}
}

// TestGraphNameLengthCap: a name whose hex-encoded store directory
// would blow the 255-byte filesystem component limit is rejected at
// registration, so -data-dir durability can never silently fail on it.
func TestGraphNameLengthCap(t *testing.T) {
	dir := t.TempDir()
	_, ts := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 1, CacheEntries: 2})
	long := strings.Repeat("n", 200)
	resp, _ := postJSON(t, ts.URL+"/v1/graphs", graphUploadRequest{Name: long, Spec: "kron:5"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("200-byte name: status %d, want 400", resp.StatusCode)
	}
	// A name at the cap (with characters that force hex encoding) still
	// persists fine ('~' is outside the store's safe charset but needs
	// no URL escaping).
	odd := strings.Repeat("n", 118) + "~~"
	resp, _ = postJSON(t, ts.URL+"/v1/graphs", graphUploadRequest{Name: odd, Spec: "kron:5"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("120-byte odd name: status %d, want 200", resp.StatusCode)
	}
	m := mutateHTTP(t, ts, odd, MutateRequest{AddEdges: [][2]uint32{{0, 3}}})
	if !m.Persisted {
		t.Fatal("capped odd name not durably persisted")
	}
}

// TestMetricsStoreGauges: the persistence gauges appear once a store
// is attached.
func TestMetricsStoreGauges(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 1, CacheEntries: 2})
	addSpecGraph(t, ts, "g", "kron:6")
	mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{0, 3}}})
	m := s.SnapshotMetrics()
	if m.Store == nil {
		t.Fatal("metrics missing store gauges")
	}
	if m.Store.Graphs != 1 || m.Store.WALRecords != 1 || m.Store.WALAppends != 1 {
		t.Fatalf("store gauges %+v", m.Store)
	}
	if m.PersistErrors != 0 {
		t.Fatalf("persistErrors = %d", m.PersistErrors)
	}
}

// TestCloseWaitsForBackgroundCompaction: a 1-byte compaction
// threshold makes every mutation fire a background compaction; Close
// immediately afterwards must wait it out rather than unmapping
// snapshots under it. Run with -race this also exercises the
// store-level per-graph locking against concurrent /metrics reads.
func TestCloseWaitsForBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ManagerConfig{MaxInflight: 2, CacheEntries: 2})
	s.AttachStore(st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	addSpecGraph(t, ts, "g", "kron:7")
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s.SnapshotMetrics() // races with compaction unless locked
			}
		}
	}()
	for i := 0; i < 4; i++ {
		mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{uint32(i), uint32(i + 20)}}})
	}
	close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close during background compaction: %v", err)
	}
	// The fold survived: a fresh recovery starts from the compacted
	// snapshot with an empty (or nearly empty) WAL.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].SnapshotVersion == 0 {
		t.Fatalf("no compacted snapshot recovered: %+v", recovered[0].SnapshotVersion)
	}
}

// TestCompactTriggersCoalesceToFinalFold: with every batch over the
// compaction threshold, each mutation fires a background compaction
// while earlier ones are still writing and abort on the version move.
// Triggers that find a compaction running must be coalesced into a
// rerun, not dropped, so after Close the durable snapshot holds the
// final version with nothing left in the WAL.
func TestCompactTriggersCoalesceToFinalFold(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ManagerConfig{MaxInflight: 2, CacheEntries: 2})
	s.AttachStore(st)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	addSpecGraph(t, ts, "g", "kron:7")
	var last MutateResponse
	for i := 0; i < 16; i++ {
		last = mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{uint32(i), uint32(i + 40)}}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].SnapshotVersion != last.Version || len(recovered[0].Records) != 0 {
		t.Fatalf("final fold missing: snapshot version %d with %d WAL records, want %d and 0",
			recovered[0].SnapshotVersion, len(recovered[0].Records), last.Version)
	}
}

// TestPersistDegradeAndSelfHeal: a batch applied without reaching the
// WAL (here: injected via a direct Mutate with a nil persist hook —
// the same shape as the register/mutate race or a failed fsync) must
// NOT leave a holey WAL. The next HTTP mutation trips the store's
// version-gap guard, the entry degrades (acked but persisted:false),
// and the scheduled compaction folds the in-memory state so durability
// resumes — verified by a full recovery to the final version.
func TestPersistDegradeAndSelfHeal(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 4})
	addSpecGraph(t, ts, "g", "kron:7")
	m1 := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{0, 9}}})
	if m1.Version != 1 || !m1.Persisted {
		t.Fatalf("healthy mutation: version %d persisted %v", m1.Version, m1.Persisted)
	}
	// Inject an unlogged batch: memory moves to version 2, WAL stays at 1.
	e, err := s.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate(dynamic.Batch{AddEdges: []graph.Edge{{U: 1, V: 8}}}, false, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The next mutation hits the gap guard, degrades, and schedules the
	// heal. It is still acked with the correct version — but honestly
	// marked non-durable.
	m3 := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{2, 7}}})
	if m3.Version != 3 {
		t.Fatalf("degraded mutation version %d, want 3", m3.Version)
	}
	if m3.Persisted {
		t.Fatal("degraded mutation claimed persisted:true")
	}
	if s.SnapshotMetrics().PersistErrors == 0 {
		t.Fatal("gap did not register in persistErrors")
	}
	// Let the self-heal land (compaction folds version >= 3), then keep
	// mutating: appends must resume durably.
	deadline := time.Now().Add(5 * time.Second)
	for e.persistBroken.Load() {
		if time.Now().After(deadline) {
			t.Fatal("persistence never self-healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m4 := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{3, 6}}})
	if m4.Version != 4 || !m4.Persisted {
		t.Fatalf("post-heal mutation: version %d persisted %v", m4.Version, m4.Persisted)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Recovery reaches the final version: nothing acked was lost to the gap.
	s2, _ := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 4})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("recovery after degrade+heal: %v", err)
	}
	e2, err := s2.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if v := e2.Version(); v != 4 {
		t.Fatalf("recovered version %d, want 4", v)
	}
}

// TestAdminCompactAllReportsPerGraphFailures: compact-all must not
// abort on the first failing graph — one bad graph would discard the
// outcome of graphs already folded, leaving the operator blind before
// a planned restart. The endpoint returns 200 with the full per-graph
// picture: compacted, skipped, and a failed error map.
func TestAdminCompactAllReportsPerGraphFailures(t *testing.T) {
	dir := t.TempDir()
	_, ts := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 4})
	addSpecGraph(t, ts, "good", "kron:6")
	addSpecGraph(t, ts, "bad", "kron:6")
	mutateHTTP(t, ts, "good", MutateRequest{AddEdges: [][2]uint32{{0, 9}}})
	mutateHTTP(t, ts, "bad", MutateRequest{AddEdges: [][2]uint32{{0, 9}}})
	// Sabotage bad's store directory: its snapshot write has nowhere to
	// land, so compactGraph must error (works even as root, unlike a
	// permission bit).
	if err := os.RemoveAll(filepath.Join(dir, "graphs", "g-bad")); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/admin/compact", adminCompactRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact-all: %d: %s", resp.StatusCode, body)
	}
	var cr adminCompactResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Compacted) != 1 || cr.Compacted[0] != "good" {
		t.Fatalf("compacted %v, want [good]", cr.Compacted)
	}
	if len(cr.Failed) != 1 || cr.Failed["bad"] == "" {
		t.Fatalf("failed map %v, want bad's error text", cr.Failed)
	}
	// Single-graph mode keeps surfacing the error as a status code.
	resp, _ = postJSON(t, ts.URL+"/v1/admin/compact", adminCompactRequest{Graph: "bad"})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("single-graph compact of sabotaged graph returned 200")
	}
}

// TestNoopMutationHonorsDegradedPersistence: a batch that doesn't
// advance the version skips the WAL hook, but its persisted flag must
// still tell the truth — while the entry is degraded (earlier acked
// batches unlogged), no response may claim durability is healthy.
func TestNoopMutationHonorsDegradedPersistence(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 4})
	addSpecGraph(t, ts, "g", "kron:6")
	if m := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{0, 9}}}); m.Version != 1 || !m.Persisted {
		t.Fatalf("healthy mutation: version %d persisted %v", m.Version, m.Persisted)
	}
	// Healthy no-op: nothing needed logging, durability claim holds.
	if m := mutateHTTP(t, ts, "g", MutateRequest{}); m.Version != 1 || !m.Persisted {
		t.Fatalf("healthy no-op: version %d persisted %v", m.Version, m.Persisted)
	}
	// Degrade through the real fault path: every WAL fsync fails, and
	// the snapshot writes of the scheduled self-heal compactions fail
	// too, so the entry STAYS degraded while the no-op is checked
	// (otherwise the async heal could race the assertion).
	armFaults(t, "point=wal.fsync,mode=fail;point=snapshot.write,mode=fail")
	if m := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{1, 8}}}); m.Version != 2 || m.Persisted {
		t.Fatalf("faulted mutation: version %d persisted %v, want 2/false", m.Version, m.Persisted)
	}
	m := mutateHTTP(t, ts, "g", MutateRequest{})
	if m.Version != 2 {
		t.Fatalf("no-op advanced version to %d", m.Version)
	}
	if m.Persisted {
		t.Fatal("no-op batch on degraded entry claimed persisted:true")
	}
	// Disarm and compact: durability resumes. The compact may briefly
	// collide with a still-running (failed) self-heal attempt, so poll.
	faultinject.Disable()
	e, err := s.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.persistBroken.Load() {
		if time.Now().After(deadline) {
			t.Fatal("disarmed entry never healed")
		}
		postJSON(t, ts.URL+"/v1/admin/compact", adminCompactRequest{Graph: "g"})
		time.Sleep(10 * time.Millisecond)
	}
	if m := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{2, 7}}}); m.Version != 3 || !m.Persisted {
		t.Fatalf("post-heal mutation: version %d persisted %v", m.Version, m.Persisted)
	}
}

// TestFsyncFaultDegradesAndSelfHeals drives the degraded-persistence
// path end to end through the fault injector: one injected fsync
// failure (exactly what a dying disk produces) degrades the entry, the
// batch is still acked with persisted:false, and the scheduled
// compaction heals durability without any operator action — proven by
// a recovery that reaches the final version.
func TestFsyncFaultDegradesAndSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 4})
	addSpecGraph(t, ts, "g", "kron:7")
	if m := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{0, 9}}}); m.Version != 1 || !m.Persisted {
		t.Fatalf("healthy mutation: version %d persisted %v", m.Version, m.Persisted)
	}
	// The next WAL fsync fails, once.
	armFaults(t, "point=wal.fsync,mode=fail,count=1")
	m2 := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{1, 8}}})
	if m2.Version != 2 {
		t.Fatalf("faulted mutation version %d, want 2", m2.Version)
	}
	if m2.Persisted {
		t.Fatal("mutation with a failed fsync claimed persisted:true")
	}
	if s.SnapshotMetrics().PersistErrors == 0 {
		t.Fatal("injected fsync failure did not register in persistErrors")
	}
	// The scheduled compaction folds memory into a snapshot; wait for
	// the heal, then appends must resume durably.
	e, err := s.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.persistBroken.Load() {
		if time.Now().After(deadline) {
			t.Fatal("persistence never self-healed after the injected fsync failure")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m := mutateHTTP(t, ts, "g", MutateRequest{AddEdges: [][2]uint32{{2, 7}}}); m.Version != 3 || !m.Persisted {
		t.Fatalf("post-heal mutation: version %d persisted %v", m.Version, m.Persisted)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Nothing acked was lost: recovery reaches the final version.
	s2, _ := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 4})
	if _, err := s2.Recover(); err != nil {
		t.Fatalf("recovery after injected degrade+heal: %v", err)
	}
	e2, err := s2.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if v := e2.Version(); v != 3 {
		t.Fatalf("recovered version %d, want 3", v)
	}
}

// TestServerClose covers the graceful-shutdown path: Close drains
// inflight work before flushing the store, times out when a job
// wedges, and leaves the store refusing further appends.
func TestServerClose(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 2})
	addSpecGraph(t, ts, "g", "kron:6")

	// Occupy one slot: Close must wait for it.
	if err := s.Manager().acquireSlot(context.Background()); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(short); err == nil {
		t.Fatal("Close returned while a job was inflight")
	}
	// Release the slot in the background; Close now succeeds and
	// flushes the store.
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.Manager().releaseSlot()
	}()
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The store is flushed and refuses further work.
	if err := s.Store().Register("late", "kron:4", nil, false); err == nil {
		t.Fatal("store accepted a registration after Close")
	}
}

// TestRecolorAdoptionPersistsAcrossRestart: a background recolor
// adoption improves the maintained coloring WITHOUT bumping the graph
// version, so its durability rides entirely on the generation-gated
// re-fold — the adoption schedules a compaction, the commit records
// the quality generation it folded, and a crash-style restart must
// recover the improved palette from the snapshot (there is no WAL
// record to replay it from).
func TestRecolorAdoptionPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	addSpecGraph(t, ts1, "er", "er:800:8000")

	// Establish the maintained coloring (a zero-pass visit creates it
	// without improving), then drive visits until an adoption lands.
	s1.recolorVisit(context.Background(), "er", 0)
	e, err := s1.Registry().Get("er")
	if err != nil {
		t.Fatal(err)
	}
	_, baseColors, _, ok := e.MaintainedColors()
	if !ok {
		t.Fatal("no maintained coloring after the establishing visit")
	}
	if saved := recolorUntilImproved(s1, "er", 12); saved == 0 {
		t.Fatalf("er:800:8000 never improved from %d colors", baseColors)
	}
	_, improved, ver, _ := e.MaintainedColors()
	if ver != 0 {
		t.Fatalf("adoption bumped the graph version to %d", ver)
	}
	if improved >= baseColors {
		t.Fatalf("colors %d -> %d, want a strict reduction", baseColors, improved)
	}

	// The adoption scheduled a background re-fold; wait for its commit
	// (the snapshot generation catching up to the adoption generation),
	// then confirm the durable snapshot carries the improved palette at
	// the unchanged version.
	deadline := time.Now().Add(10 * time.Second)
	for e.snapQualityGen.Load() != e.qualityGen.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("re-fold never committed: snapshot gen %d, quality gen %d",
				e.snapQualityGen.Load(), e.qualityGen.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if colors, numColors, snapVer, ok := s1.Store().SnapshotColors("er"); !ok {
		t.Fatal("no snapshot colors after the re-fold committed")
	} else if snapVer != 0 || numColors != improved || len(colors) != e.G.NumVertices() {
		t.Fatalf("snapshot at version %d with %d colors (len %d), want version 0 with %d",
			snapVer, numColors, len(colors), improved)
	}

	ts1.Close()
	// Crash-style restart: no store Close — the committed snapshot and
	// registration records alone must carry the improvement.
	s2, ts2 := newPersistentServer(t, dir, ManagerConfig{MaxInflight: 2, CacheEntries: 8})
	rec, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Graphs != 1 || rec.SnapshotLoads != 1 || rec.ReplayedBatches != 0 {
		t.Fatalf("recovery stats %+v, want 1 graph from its snapshot with an empty WAL", rec)
	}
	e2, err := s2.Registry().Get("er")
	if err != nil {
		t.Fatal(err)
	}
	colors2, num2, ver2, ok := e2.MaintainedColors()
	if !ok {
		t.Fatal("no maintained coloring after recovery")
	}
	if ver2 != 0 || num2 != improved {
		t.Fatalf("recovered %d colors at version %d, want the adopted %d at version 0",
			num2, ver2, improved)
	}
	g2, _, err := e2.View()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckProper(g2, colors2); err != nil {
		t.Fatalf("recovered coloring: %v", err)
	}
	// The tracker is re-seeded from the recovered coloring, and the
	// binary maintained read path serves the improved palette straight
	// from the recovered mmapped snapshot.
	if st, ok := s2.QualityTracker().Get("er"); !ok || st.Colors != improved {
		t.Fatalf("tracker after recovery: %+v, %v (want colors=%d)", st, ok, improved)
	}
	resp, err := http.Get(ts2.URL + "/v1/color/bin?graph=er&algorithm=maintained")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("maintained bin read: status %d: %s", resp.StatusCode, body)
	}
	binVer, _, _, binNum, binColors, err := DecodeColorBin(body)
	if err != nil {
		t.Fatal(err)
	}
	if binVer != 0 || binNum != improved || len(binColors) != g2.NumVertices() {
		t.Fatalf("binary read: version %d, %d colors, n=%d; want version 0, %d colors, n=%d",
			binVer, binNum, len(binColors), improved, g2.NumVertices())
	}
}
