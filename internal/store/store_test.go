package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

func TestDirName(t *testing.T) {
	cases := map[string]string{
		"kron12":    "g-kron12",
		"a.b_c-9":   "g-a.b_c-9",
		"a.b_c-D9":  "x-" + "612e625f632d4439", // uppercase is unsafe: case-folding FS
		"":          "x-",
		"has space": "x-" + "686173207370616365",
		"g-foo":     "g-g-foo",
	}
	for in, want := range cases {
		if got := dirName(in); got != want {
			t.Errorf("dirName(%q) = %q, want %q", in, got, want)
		}
	}
	// Long names fall back to hex too.
	long := strings.Repeat("a", 65)
	if got := dirName(long); !strings.HasPrefix(got, "x-") {
		t.Errorf("dirName(long) = %q, want hex form", got)
	}
	// Injectivity spot check: the "g-" prefix cannot collide with a
	// graph literally named with the prefix.
	if dirName("foo") == dirName("g-foo") {
		t.Error("dirName collides on prefix")
	}
	// Injectivity under case folding: on a case-insensitive filesystem
	// "Foo" and "foo" must not resolve to the same directory (they would
	// share one wal.log and clobber each other's meta.json). The safe
	// set is lowercase-only and hex encoding emits lowercase, so no two
	// distinct names may map to case-fold-equal directories.
	for _, pair := range [][2]string{{"Foo", "foo"}, {"KRON12", "kron12"}, {"A b", "a b"}} {
		if strings.EqualFold(dirName(pair[0]), dirName(pair[1])) {
			t.Errorf("dirName(%q)=%q case-folds onto dirName(%q)=%q",
				pair[0], dirName(pair[0]), pair[1], dirName(pair[1]))
		}
	}
}

func TestStoreRegisterAndRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dir() != dir {
		t.Fatalf("Dir() = %q", st.Dir())
	}
	g := testGraph(t)

	// Spec graph: metadata only. Upload: snapshot.
	if err := st.Register("spec1", "kron:8:8:7", nil, false); err != nil {
		t.Fatal(err)
	}
	if err := st.Register("up1", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-registration.
	if err := st.Register("up1", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	if !st.Has("spec1") || !st.Has("up1") || st.Has("nope") {
		t.Fatal("Has() wrong")
	}
	// A snapshot registration without a graph is an error.
	if err := st.Register("bad", "upload:mm", nil, true); err == nil {
		t.Fatal("snapshot registration without graph succeeded")
	}

	// Log batches against the upload.
	b1 := dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 9}}}
	b2 := dynamic.Batch{DelEdges: []graph.Edge{{U: 0, V: 9}}, AddVertices: 1}
	if _, err := st.AppendBatch("up1", 1, b1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("up1", 2, b2); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("ghost", 1, b1); err == nil {
		t.Fatal("append for unregistered graph succeeded")
	}
	stats := st.Stats()
	if stats.Graphs != 2 || stats.Snapshots != 1 || stats.WALRecords != 2 || stats.WALAppends != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.SnapshotBytes == 0 || stats.WALBytes == 0 {
		t.Fatalf("zero sizes in %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything errors after close.
	if _, err := st.AppendBatch("up1", 3, b1); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := st.Register("late", "kron:4", nil, false); err == nil {
		t.Fatal("register after close succeeded")
	}
	if _, err := st.Recover(); err == nil {
		t.Fatal("recover after close succeeded")
	}

	// Recover in a fresh store.
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d graphs, want 2", len(recovered))
	}
	// Sorted by name: spec1, up1.
	sp, up := recovered[0], recovered[1]
	if sp.Name != "spec1" || up.Name != "up1" {
		t.Fatalf("recovered names %q, %q", sp.Name, up.Name)
	}
	if sp.Base != nil || sp.Spec != "kron:8:8:7" || len(sp.Records) != 0 {
		t.Fatalf("spec graph recovered wrong: %+v", sp)
	}
	if up.Base == nil || !graphsEqual(up.Base, g) {
		t.Fatal("upload base graph not recovered from snapshot")
	}
	if up.Colors != nil || up.SnapshotVersion != 0 {
		t.Fatalf("upload snapshot metadata wrong: colors=%v ver=%d", up.Colors, up.SnapshotVersion)
	}
	if len(up.Records) != 2 || up.Records[0].Version != 1 || up.Records[1].Version != 2 {
		t.Fatalf("upload WAL records wrong: %+v", up.Records)
	}
	// And the recovered store accepts further appends.
	if _, err := st2.AppendBatch("up1", 3, b1); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBatchRejectsVersionGap: a batch that was applied in
// memory but never logged must make the NEXT append fail rather than
// writing a WAL with a hole — a holey WAL replays to a version
// mismatch and an unbootable data directory.
func TestAppendBatchRejectsVersionGap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := testGraph(t)
	if err := st.Register("m", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	b := dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 5}}}
	// First append must be version 1.
	if _, err := st.AppendBatch("m", 2, b); err == nil {
		t.Fatal("append at version 2 with empty WAL succeeded")
	}
	if _, err := st.AppendBatch("m", 1, b); err != nil {
		t.Fatal(err)
	}
	// Gap after version 1.
	if _, err := st.AppendBatch("m", 3, b); err == nil {
		t.Fatal("append with version gap succeeded")
	}
	// Repeats are rejected too.
	if _, err := st.AppendBatch("m", 1, b); err == nil {
		t.Fatal("duplicate version accepted")
	}
	// Compaction re-syncs the trail: fold at version 3, appends resume at 4.
	dyn := dynamic.NewColored(g, dynamic.Options{Procs: 1, Seed: 1})
	g3, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact("m", g3, dyn.Colors(), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("m", 4, b); err != nil {
		t.Fatalf("append after compaction re-sync: %v", err)
	}
}

// TestBeginCompactAbort: an aborted pending compaction leaves the
// adopted state untouched and removes its file.
func TestBeginCompactAbort(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := testGraph(t)
	if err := st.Register("m", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("m", 1, dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 5}}}); err != nil {
		t.Fatal(err)
	}
	p, err := st.BeginCompact("m", g, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	pendingFile := filepath.Join(dir, "graphs", "g-m", "snapshot-1.pcs"+pendingSuffix)
	if _, err := os.Stat(pendingFile); err != nil {
		t.Fatal("pending snapshot file missing")
	}
	// Until Commit, the adoptable name must not exist: a pending fold
	// never shadows (or, on abort, deletes) a bootable snapshot.
	if _, err := os.Stat(filepath.Join(dir, "graphs", "g-m", "snapshot-1.pcs")); !os.IsNotExist(err) {
		t.Fatal("pending snapshot occupies the final name before Commit")
	}
	p.Abort()
	if _, err := os.Stat(pendingFile); !os.IsNotExist(err) {
		t.Fatal("aborted snapshot file still present")
	}
	if stats := st.Stats(); stats.Compactions != 0 || stats.WALRecords != 1 {
		t.Fatalf("abort changed adopted state: %+v", stats)
	}
	// The WAL trail is unaffected: version 2 is next.
	if _, err := st.AppendBatch("m", 2, dynamic.Batch{AddEdges: []graph.Edge{{U: 1, V: 6}}}); err != nil {
		t.Fatal(err)
	}
}

// TestAbortKeepsLiveSnapshot is the regression for the unbootable-dir
// bug: re-compacting an already-folded version and aborting must leave
// the snapshot meta.json references on disk, and the directory must
// still recover. (Pre-fix, BeginCompact renamed its output over
// snapshot-V.pcs and Abort os.Remove'd it — the live file.)
func TestAbortKeepsLiveSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	if err := st.Register("m", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("m", 1, dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 5}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact("m", g, nil, 1); err != nil {
		t.Fatal(err)
	}
	live := filepath.Join(dir, "graphs", "g-m", "snapshot-1.pcs")
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("live snapshot missing after compaction: %v", err)
	}
	// Second fold of the same version, aborted (a batch "slipped in").
	p, err := st.BeginCompact("m", g, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Abort()
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("abort deleted the live snapshot meta.json references: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The directory must still boot.
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatalf("data dir unbootable after aborted re-fold: %v", err)
	}
	if len(recovered) != 1 || recovered[0].SnapshotVersion != 1 {
		t.Fatalf("recovered %+v, want one graph at snapshot version 1", recovered)
	}
}

// TestRecoverSweepsPendingSnapshots: a crash between BeginCompact and
// Commit leaves a .pending file; Recover removes it and boots from the
// adopted state.
func TestRecoverSweepsPendingSnapshots(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	if err := st.Register("m", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("m", 1, dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 5}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.BeginCompact("m", g, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // "crash" with the pending file on disk
		t.Fatal(err)
	}
	pending := filepath.Join(dir, "graphs", "g-m", "snapshot-1.pcs"+pendingSuffix)
	if _, err := os.Stat(pending); err != nil {
		t.Fatalf("pending file not on disk before recovery: %v", err)
	}
	// A final-named snapshot meta.json doesn't reference (crash between
	// Commit's rename and meta write) is equally dead weight.
	orphan := filepath.Join(dir, "graphs", "g-m", "snapshot-9.pcs")
	if _, err := WriteSnapshotFile(orphan, g, nil, 9); err != nil {
		t.Fatal(err)
	}
	// So are the CreateTemp files a kill mid-write strands.
	snapTemp := filepath.Join(dir, "graphs", "g-m", ".snap-123456")
	metaTemp := filepath.Join(dir, "graphs", "g-m", ".meta-123456")
	for _, p := range []string{snapTemp, metaTemp} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A whole directory without meta.json (registration died before the
	// meta write) was never acknowledged at all: removed outright.
	deadDir := filepath.Join(dir, "graphs", "g-dead")
	if err := os.MkdirAll(deadDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshotFile(filepath.Join(deadDir, "snapshot-0.pcs"), g, nil, 0); err != nil {
		t.Fatal(err)
	}
	// A meta-less directory the store did not name is foreign data:
	// skipped, never deleted.
	foreignDir := filepath.Join(dir, "graphs", "lost+found")
	if err := os.MkdirAll(foreignDir, 0o755); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || len(recovered[0].Records) != 1 {
		t.Fatalf("recovered %+v, want one graph with its one WAL record", recovered)
	}
	if _, err := os.Stat(pending); !os.IsNotExist(err) {
		t.Fatal("Recover left the stray pending snapshot behind")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("Recover left the unreferenced final-name snapshot behind")
	}
	for _, p := range []string{snapTemp, metaTemp} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("Recover left crash temp %s behind", p)
		}
	}
	if _, err := os.Stat(deadDir); !os.IsNotExist(err) {
		t.Fatal("Recover left the meta-less registration debris directory behind")
	}
	if _, err := os.Stat(foreignDir); err != nil {
		t.Fatalf("Recover deleted a foreign directory under graphs/: %v", err)
	}
	// The referenced snapshot itself survived the sweep.
	if _, err := os.Stat(filepath.Join(dir, "graphs", "g-m", "snapshot-0.pcs")); err != nil {
		t.Fatalf("sweep removed the live snapshot: %v", err)
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir, CompactBytes: 1}) // every append suggests compaction
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := testGraph(t)
	if err := st.Register("m", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	compact, err := st.AppendBatch("m", 1, dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if !compact {
		t.Fatal("threshold 1 byte did not suggest compaction")
	}

	// Fold: pretend the overlay applied the batch.
	dyn := dynamic.NewColored(g, dynamic.Options{Procs: 1, Seed: 1})
	if _, err := dyn.Apply(dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 5}}}); err != nil {
		t.Fatal(err)
	}
	g1, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact("m", g1, dyn.Colors(), dyn.Version()); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact("ghost", g1, nil, 1); err == nil {
		t.Fatal("compacting unregistered graph succeeded")
	}
	stats := st.Stats()
	if stats.Compactions != 1 || stats.WALRecords != 0 || stats.WALBytes != 0 {
		t.Fatalf("post-compaction stats = %+v", stats)
	}
	// The old snapshot-0 file is gone, snapshot-1 exists.
	gdir := filepath.Join(dir, "graphs", "g-m")
	if _, err := os.Stat(filepath.Join(gdir, "snapshot-0.pcs")); !os.IsNotExist(err) {
		t.Fatal("superseded snapshot file still present")
	}
	if _, err := os.Stat(filepath.Join(gdir, "snapshot-1.pcs")); err != nil {
		t.Fatal("compacted snapshot file missing")
	}

	// Append past compaction, then recover: base at version 1 with the
	// maintained coloring, plus the one newer record.
	if _, err := st.AppendBatch("m", 2, dynamic.Batch{AddEdges: []graph.Edge{{U: 1, V: 7}}}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d graphs", len(recovered))
	}
	rg := recovered[0]
	if rg.SnapshotVersion != 1 || rg.Colors == nil || !graphsEqual(rg.Base, g1) {
		t.Fatalf("compacted recovery wrong: ver=%d colors=%v", rg.SnapshotVersion, rg.Colors != nil)
	}
	if len(rg.Records) != 1 || rg.Records[0].Version != 2 {
		t.Fatalf("records after compaction: %+v", rg.Records)
	}
}

// TestStoreRecoverSkipsFoldedRecords simulates the crash window
// between compaction's meta swap and the WAL reset: the WAL still
// holds records at or below the snapshot version, which recovery must
// skip rather than double-apply.
func TestStoreRecoverSkipsFoldedRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	if err := st.Register("m", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("m", 1, dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 5}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("m", 2, dynamic.Batch{AddEdges: []graph.Edge{{U: 1, V: 6}}}); err != nil {
		t.Fatal(err)
	}
	// Hand-write a snapshot at version 1 and point meta at it WITHOUT
	// resetting the WAL — exactly the torn compaction state.
	dyn := dynamic.NewColored(g, dynamic.Options{Procs: 1, Seed: 1})
	if _, err := dyn.Apply(dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 5}}}); err != nil {
		t.Fatal(err)
	}
	g1, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gdir := filepath.Join(dir, "graphs", "g-m")
	if _, err := WriteSnapshotFile(filepath.Join(gdir, "snapshot-1.pcs"), g1, dyn.Colors(), 1); err != nil {
		t.Fatal(err)
	}
	if err := writeMeta(gdir, Meta{Name: "m", Spec: "upload:edgelist", Snapshot: "snapshot-1.pcs", SnapshotVersion: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	recovered, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	rg := recovered[0]
	if rg.SnapshotVersion != 1 || rg.SkippedRecords != 1 {
		t.Fatalf("skipped %d records at snapshot version %d, want 1 at 1", rg.SkippedRecords, rg.SnapshotVersion)
	}
	if len(rg.Records) != 1 || rg.Records[0].Version != 2 {
		t.Fatalf("replayable records: %+v", rg.Records)
	}
}

func TestStoreOpenErrors(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	// Recovery rejects a meta/snapshot version mismatch.
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t)
	if err := st.Register("m", "upload:edgelist", g, true); err != nil {
		t.Fatal(err)
	}
	gdir := filepath.Join(dir, "graphs", "g-m")
	if err := writeMeta(gdir, Meta{Name: "m", Spec: "upload:edgelist", Snapshot: "snapshot-0.pcs", SnapshotVersion: 3}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(); err == nil {
		t.Fatal("version-mismatched snapshot recovered")
	}
}

// TestStoreRecoverIgnoresEmptyDir: a crash between directory creation
// and the first meta write leaves an empty graph dir, which recovery
// drops silently.
func TestStoreRecoverIgnoresEmptyDir(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.MkdirAll(filepath.Join(dir, "graphs", "g-orphan"), 0o755); err != nil {
		t.Fatal(err)
	}
	recovered, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("recovered %d graphs from empty dirs", len(recovered))
	}
}

func TestTailRecordsAndLastVersion(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := testGraph(t)
	if err := st.Register("tail", "spec", g, true); err != nil {
		t.Fatal(err)
	}
	if v, err := st.LastVersion("tail"); err != nil || v != 0 {
		t.Fatalf("fresh LastVersion = %d, %v", v, err)
	}
	batches := []dynamic.Batch{
		{AddEdges: []graph.Edge{{U: 0, V: 1}}},
		{AddEdges: []graph.Edge{{U: 1, V: 2}}},
		{DelEdges: []graph.Edge{{U: 0, V: 1}}},
	}
	for i, b := range batches {
		if _, err := st.AppendBatch("tail", uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := st.LastVersion("tail"); err != nil || v != 3 {
		t.Fatalf("LastVersion = %d, %v, want 3", v, err)
	}
	// Full tail from 0, partial tail from 2, empty tail from the head.
	recs, err := st.TailRecords("tail", 0)
	if err != nil || len(recs) != 3 {
		t.Fatalf("TailRecords(0): %d records, %v", len(recs), err)
	}
	for i, rec := range recs {
		if rec.Version != uint64(i+1) {
			t.Fatalf("record %d has version %d", i, rec.Version)
		}
	}
	if len(recs[2].Batch.DelEdges) != 1 {
		t.Fatalf("record 3 batch did not round-trip: %+v", recs[2].Batch)
	}
	recs, err = st.TailRecords("tail", 2)
	if err != nil || len(recs) != 1 || recs[0].Version != 3 {
		t.Fatalf("TailRecords(2): %+v, %v", recs, err)
	}
	if recs, err = st.TailRecords("tail", 3); err != nil || len(recs) != 0 {
		t.Fatalf("TailRecords(3): %+v, %v, want empty", recs, err)
	}
	// Appends racing tail reads must not disturb the append position.
	if _, err := st.AppendBatch("tail", 4, dynamic.Batch{AddEdges: []graph.Edge{{U: 2, V: 3}}}); err != nil {
		t.Fatalf("append after ReadAll: %v", err)
	}
	if recs, err = st.TailRecords("tail", 0); err != nil || len(recs) != 4 {
		t.Fatalf("TailRecords after post-read append: %d records, %v", len(recs), err)
	}
	// Fold everything into a snapshot: the tail past the snapshot is
	// empty, and a request from before it is an explicit "compacted"
	// error, not a silent empty tail.
	if err := st.Compact("tail", g, nil, 4); err != nil {
		t.Fatal(err)
	}
	if recs, err = st.TailRecords("tail", 4); err != nil || len(recs) != 0 {
		t.Fatalf("post-compaction TailRecords(4): %+v, %v", recs, err)
	}
	if _, err = st.TailRecords("tail", 1); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Fatalf("TailRecords(1) after compaction: %v, want compacted error", err)
	}
	if _, err := st.TailRecords("nope", 0); err == nil {
		t.Fatal("TailRecords on unknown graph succeeded")
	}
	if _, err := st.LastVersion("nope"); err == nil {
		t.Fatal("LastVersion on unknown graph succeeded")
	}
}

// TestStatsReadsBusyGraph holds a graph's lock, as a WAL fsync or a
// fold commit does, and still sees its WAL and snapshot sizes.
func TestStatsReadsBusyGraph(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Register("up1", "upload:edgelist", testGraph(t), true); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch("up1", 1, dynamic.Batch{AddEdges: []graph.Edge{{U: 0, V: 9}}}); err != nil {
		t.Fatal(err)
	}
	idle := st.Stats()
	if idle.WALBytes == 0 || idle.WALRecords != 1 || idle.Snapshots != 1 || idle.SnapshotBytes == 0 {
		t.Fatalf("idle stats %+v", idle)
	}
	gs, err := st.lookup("up1")
	if err != nil {
		t.Fatal(err)
	}
	gs.mu.Lock()
	busy := st.Stats()
	gs.mu.Unlock()
	if busy != idle {
		t.Fatalf("stats with the graph busy %+v, want %+v", busy, idle)
	}
}
