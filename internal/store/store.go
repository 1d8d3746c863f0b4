package store

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

// Directory layout under Options.Dir:
//
//	graphs/
//	  <dirname>/            one directory per registered graph
//	    meta.json           name, spec, snapshot pointer + version
//	    snapshot-<V>.pcs    binary snapshot at graph version V (uploads
//	                        at registration, every graph after compaction;
//	                        spec-built graphs may have none — the spec
//	                        string rebuilds them deterministically)
//	    wal.log             mutation batches with version > V
//
// meta.json is written atomically (temp + rename + dir fsync) and a
// new snapshot is written and referenced from meta before the WAL is
// reset, so every crash point recovers to a consistent (snapshot or
// spec) + WAL-suffix pair: records at or below the snapshot version
// are skipped on replay.

// DefaultCompactBytes is the WAL size past which a compaction is
// suggested (AppendBatch's second result).
const DefaultCompactBytes = int64(4) << 20

// Options parameterizes Open.
type Options struct {
	// Dir is the data directory (created if absent).
	Dir string
	// CompactBytes is the WAL size threshold that makes AppendBatch
	// request compaction (<= 0 selects DefaultCompactBytes).
	CompactBytes int64
}

// Meta is the per-graph metadata document (meta.json).
type Meta struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
	// Snapshot is the snapshot file name ("" when the graph has none
	// and must be rebuilt from Spec); SnapshotVersion is the graph
	// version it captures.
	Snapshot        string `json:"snapshot,omitempty"`
	SnapshotVersion uint64 `json:"snapshotVersion"`
}

// graphStore is the open persistent state of one graph. mu guards
// every field but the published sizes: appends, compaction folds and
// the final close all serialize per graph, so the global Store.mu is
// only ever held for map lookups — never across disk I/O. Lock order
// is always Store.mu before graphStore.mu; nothing acquires Store.mu
// while holding a graphStore.mu.
type graphStore struct {
	mu   sync.Mutex
	dir  string
	meta Meta
	wal  *WAL // nil only for a registration that failed mid-build
	// lastVersion is the newest graph version the store holds durably
	// (snapshot version, advanced by every appended record). AppendBatch
	// enforces continuity against it: a version gap — a batch that was
	// applied in memory but never logged, whatever the cause — must be
	// rejected here, because a WAL with a hole replays to a version
	// mismatch and makes the data directory unbootable.
	lastVersion uint64
	// snap is the open snapshot backing the served base graph; it (and
	// any predecessors retired by compaction) stays mapped until the
	// store closes, because registered graphs alias its arrays for the
	// life of the process.
	snap    *Snapshot
	retired []*Snapshot
	// walBytes, walRecords and snapBytes are the sizes Stats reports
	// (snapBytes 0: no snapshot), published under mu wherever the WAL
	// or the snapshot changes and read without it, so Stats neither
	// waits on a graph that is appending or folding nor skips it.
	walBytes, walRecords, snapBytes atomic.Int64
}

// publishSizes records gs's current sizes for Stats. The caller holds
// gs.mu, or gs is not yet shared.
func (gs *graphStore) publishSizes() {
	var wb, wr, sb int64
	if gs.wal != nil {
		wb, wr = gs.wal.Size(), gs.wal.Records()
	}
	if gs.snap != nil {
		sb = int64(len(gs.snap.data))
	}
	gs.walBytes.Store(wb)
	gs.walRecords.Store(wr)
	gs.snapBytes.Store(sb)
}

// RecoveredGraph is what one graph directory recovers to: a base
// (snapshot graph, or nil when the spec must rebuild it), the
// maintained coloring embedded in a compacted snapshot (nil if none),
// the version the base captures, and the WAL suffix to replay on top.
type RecoveredGraph struct {
	Name            string
	Spec            string
	Base            *graph.Graph
	Colors          []uint32
	SnapshotVersion uint64
	Records         []WALRecord
	// WALTruncated reports that a torn tail was detected by checksum
	// and cut; SkippedRecords counts records already folded into the
	// snapshot (a crash between compaction's meta swap and WAL reset).
	WALTruncated   bool
	SkippedRecords int
}

// Stats is the /metrics view of the store.
type Stats struct {
	Dir             string `json:"dir"`
	Graphs          int    `json:"graphs"`
	Snapshots       int    `json:"snapshots"`
	SnapshotBytes   int64  `json:"snapshotBytes"`
	WALBytes        int64  `json:"walBytes"`
	WALRecords      int64  `json:"walRecords"`
	WALAppends      int64  `json:"walAppends"`
	Compactions     int64  `json:"compactions"`
	RecoveredGraphs int    `json:"recoveredGraphs"`
	ReplayedBatches int    `json:"replayedBatches"`
	TruncatedWALs   int    `json:"truncatedWALs"`
}

// Store is the persistent graph & coloring store colord mounts at
// --data-dir. Safe for concurrent use; per-graph operations serialize
// on the store lock only long enough to resolve the graphStore, and
// the service layer already serializes appends per graph (the entry's
// mutation lock).
type Store struct {
	dir          string
	compactBytes int64

	mu     sync.Mutex
	graphs map[string]*graphStore
	closed bool

	walAppends      atomic.Int64
	compactions     atomic.Int64
	recoveredGraphs int
	replayedBatches int
	truncatedWALs   int

	// observer receives durability latencies (WAL append+fsync,
	// compaction) when the service layer attaches one; nil hooks and a
	// nil observer are both no-ops.
	observer atomic.Pointer[Observer]
}

// Observer carries optional latency callbacks the serving layer hooks
// its histograms into. Either function may be nil.
type Observer struct {
	// WALAppendSeconds is called with the duration of each durable WAL
	// append (including the fsync).
	WALAppendSeconds func(float64)
	// CompactionSeconds is called with the duration of each completed
	// compaction, from the snapshot write through adoption.
	CompactionSeconds func(float64)
}

// SetObserver attaches (or replaces) the latency observer. Safe
// concurrently with appends and compactions.
func (s *Store) SetObserver(o Observer) { s.observer.Store(&o) }

// Open opens (creating if needed) the store rooted at opts.Dir.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	if opts.CompactBytes <= 0 {
		opts.CompactBytes = DefaultCompactBytes
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "graphs"), 0o755); err != nil {
		return nil, err
	}
	return &Store{
		dir:          opts.Dir,
		compactBytes: opts.CompactBytes,
		graphs:       make(map[string]*graphStore),
	}, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// dirName maps a graph name to a filesystem-safe directory name:
// names made of [a-z0-9._-] keep their spelling under a "g-" prefix,
// everything else is hex-encoded under "x-". Injective even on
// case-insensitive filesystems (darwin is a supported mmap target):
// the safe set has no uppercase and hex encoding is lowercase, so two
// distinct names can never case-fold onto the same directory — which
// would silently overwrite one graph's meta and interleave two WALs in
// one file. The authoritative name lives in meta.json either way.
func dirName(name string) string {
	safe := len(name) > 0 && len(name) <= 64
	for i := 0; safe && i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			safe = false
		}
	}
	if safe {
		return "g-" + name
	}
	return "x-" + hex.EncodeToString([]byte(name))
}

func (s *Store) graphDir(name string) string {
	return filepath.Join(s.dir, "graphs", dirName(name))
}

// writeMeta writes meta.json atomically.
func writeMeta(dir string, m Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".meta-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, "meta.json")); err != nil {
		return err
	}
	return syncDir(dir)
}

// Register persists a newly registered graph. For spec-built graphs
// (g == nil or a reproducible spec) only the metadata is stored — the
// spec string rebuilds the identical graph on boot; pass g non-nil
// with snapshot=true for uploads, whose bytes exist nowhere else.
// Idempotent: re-registering an existing graph is a no-op.
//
// The disk work (potentially a multi-hundred-MB snapshot write) runs
// outside the global lock: a placeholder entry is published first with
// its per-graph lock held, so concurrent appends for this name queue
// on it while every other graph's traffic proceeds untouched.
func (s *Store) Register(name, spec string, g *graph.Graph, snapshot bool) error {
	if snapshot && g == nil {
		return fmt.Errorf("store: snapshot registration of %q needs a graph", name)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	if _, ok := s.graphs[name]; ok {
		s.mu.Unlock()
		return nil
	}
	gs := &graphStore{dir: s.graphDir(name)}
	gs.mu.Lock() // held until built; lookups block here, not on s.mu
	s.graphs[name] = gs
	s.mu.Unlock()

	if err := s.buildGraphStore(gs, name, spec, g, snapshot); err != nil {
		// Unpublish. gs.mu is released before re-taking s.mu (lock
		// order); a waiter that slips in sees gs.wal == nil and errors.
		gs.mu.Unlock()
		s.mu.Lock()
		delete(s.graphs, name)
		s.mu.Unlock()
		return err
	}
	gs.publishSizes()
	gs.mu.Unlock()
	return nil
}

// buildGraphStore does Register's disk work under gs.mu only.
func (s *Store) buildGraphStore(gs *graphStore, name, spec string, g *graph.Graph, snapshot bool) error {
	if err := os.MkdirAll(gs.dir, 0o755); err != nil {
		return err
	}
	meta := Meta{Name: name, Spec: spec}
	if snapshot {
		meta.Snapshot = "snapshot-0.pcs"
		if _, err := WriteSnapshotFile(filepath.Join(gs.dir, meta.Snapshot), g, nil, 0); err != nil {
			return err
		}
	}
	if err := writeMeta(gs.dir, meta); err != nil {
		return err
	}
	wal, _, _, err := OpenWAL(filepath.Join(gs.dir, "wal.log"))
	if err != nil {
		return err
	}
	gs.meta = meta
	gs.wal = wal
	if meta.Snapshot != "" {
		snap, err := OpenSnapshot(filepath.Join(gs.dir, meta.Snapshot))
		if err != nil {
			wal.Close()
			gs.wal = nil
			return err
		}
		gs.snap = snap
	}
	return nil
}

// Has reports whether name is persisted in this store.
func (s *Store) Has(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.graphs[name]
	return ok
}

// SnapshotBytes returns the raw bytes of name's adopted snapshot file
// together with the version it captures — the cluster resync feed: a
// peer whose divergence or compaction gap cannot be healed from the
// WAL tail ships this whole checksummed snapshot and replays the tail
// on top. Served from the durable file, NOT from the in-memory entry,
// so the service layer can answer it while a replication call holds
// the graph's mutation lock (the requester is often the very replica
// that replication is waiting on). An error means the graph has no
// snapshot yet (spec-only registration that never compacted) — the
// caller falls back to capturing live state.
func (s *Store) SnapshotBytes(name string) ([]byte, uint64, error) {
	gs, err := s.lookup(name)
	if err != nil {
		return nil, 0, err
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.wal == nil {
		return nil, 0, fmt.Errorf("store: graph %q not persisted", name)
	}
	if gs.meta.Snapshot == "" {
		return nil, 0, fmt.Errorf("store: graph %q has no snapshot (spec-only, never compacted)", name)
	}
	data, err := os.ReadFile(filepath.Join(gs.dir, gs.meta.Snapshot))
	if err != nil {
		return nil, 0, err
	}
	return data, gs.meta.SnapshotVersion, nil
}

// SnapshotColors returns the maintained coloring embedded in name's
// live snapshot, zero-copy, together with its distinct color count and
// the graph version the snapshot captures. The slice aliases the
// mmapped file — served straight from the page cache, no decode, no
// allocation — and stays valid for the life of the process: superseded
// mappings are retired on compaction, never unmapped, exactly so
// outstanding readers cannot be invalidated (see Commit). The count is
// memoized on the snapshot (Snapshot.NumColors), so serving it here
// costs nothing per request. ok is false when the graph has no
// snapshot, or its snapshot embeds no coloring. Callers that need the
// CURRENT coloring must compare the returned version against the
// live graph version themselves: the snapshot legitimately lags the
// WAL by the batches applied since the last fold.
func (s *Store) SnapshotColors(name string) (colors []uint32, numColors int, version uint64, ok bool) {
	gs, err := s.lookup(name)
	if err != nil {
		return nil, 0, 0, false
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.snap == nil || len(gs.snap.Colors) == 0 {
		return nil, 0, 0, false
	}
	return gs.snap.Colors, gs.snap.NumColors(), gs.snap.GraphVersion, true
}

// FoldState reports name's durable fold state: the graph version its
// current snapshot captures (0 when it has none yet) and how many
// records its WAL holds. The compaction path skips a fold only when
// the in-memory version equals the snapshot version AND the WAL is
// empty — a leftover WAL whose records are all folded already (crash
// between a commit's meta swap and WAL reset) still wants a fold to
// reclaim its bytes and stop every boot re-reading stale records.
func (s *Store) FoldState(name string) (snapVersion uint64, walRecords int64, err error) {
	gs, err := s.lookup(name)
	if err != nil {
		return 0, 0, err
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.wal != nil {
		walRecords = gs.wal.Records()
	}
	return gs.meta.SnapshotVersion, walRecords, nil
}

// LastVersion reports the newest graph version the store holds durably
// for name — the replication watermark a cluster peer can catch up to:
// every record at or below it is recoverable from this data directory.
func (s *Store) LastVersion(name string) (uint64, error) {
	gs, err := s.lookup(name)
	if err != nil {
		return 0, err
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.lastVersion, nil
}

// TailRecords returns the durable mutation records for name with
// version > after, in version order — the cluster catch-up feed: a
// peer that is behind asks for the tail past its own version and
// replays it through the same apply path the original mutations took.
// When after predates the snapshot the WAL records start from (the
// batches were folded by compaction), the tail cannot be served from
// the log and the caller needs a full snapshot transfer instead; that
// case is an error naming the snapshot version so the caller can tell
// it from a plain miss.
func (s *Store) TailRecords(name string, after uint64) ([]WALRecord, error) {
	gs, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.wal == nil {
		return nil, fmt.Errorf("store: graph %q not persisted", name)
	}
	if after < gs.meta.SnapshotVersion {
		return nil, fmt.Errorf("store: graph %q: records after %d are compacted into snapshot version %d (snapshot shipping needed)",
			name, after, gs.meta.SnapshotVersion)
	}
	records, err := gs.wal.ReadAll()
	if err != nil {
		return nil, err
	}
	tail := records[:0]
	for _, rec := range records {
		if rec.Version > after {
			tail = append(tail, rec)
		}
	}
	return tail, nil
}

// AppendBatch durably logs one applied mutation batch. version is the
// graph version after the batch. The second result asks the caller to
// schedule a compaction (WAL past the size threshold). The service
// layer calls this under the graph entry's mutation lock, which makes
// record order equal mutation order.
func (s *Store) AppendBatch(name string, version uint64, b dynamic.Batch) (bool, error) {
	gs, err := s.lookup(name)
	if err != nil {
		return false, err
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	defer gs.publishSizes()
	if gs.wal == nil {
		return false, fmt.Errorf("store: graph %q not persisted", name)
	}
	if version != gs.lastVersion+1 {
		return false, fmt.Errorf("store: WAL gap for %q: appending version %d after %d (an earlier batch was never logged; compact to re-sync)",
			name, version, gs.lastVersion)
	}
	appendStart := time.Now()
	if err := gs.wal.Append(version, b); err != nil {
		return false, err
	}
	if o := s.observer.Load(); o != nil && o.WALAppendSeconds != nil {
		o.WALAppendSeconds(time.Since(appendStart).Seconds())
	}
	gs.lastVersion = version
	s.walAppends.Add(1)
	return gs.wal.Size() >= s.compactBytes, nil
}

// lookup resolves name under the global lock only.
func (s *Store) lookup(name string) (*graphStore, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	gs, ok := s.graphs[name]
	if !ok {
		return nil, fmt.Errorf("store: graph %q not persisted", name)
	}
	return gs, nil
}

// pendingSuffix marks a compaction snapshot that is written but not
// yet adopted. The suffix keeps the pending file's name disjoint from
// every adoptable snapshot name, so Abort can never remove the live
// snapshot meta.json points at (a re-fold of an already-folded version
// would otherwise write — and on abort delete — the very file the data
// directory boots from). Recover sweeps stray pending files left by a
// crash mid-compaction.
const pendingSuffix = ".pending"

// PendingCompact is a compaction whose snapshot file is written (under
// a .pending name) but not yet adopted. Built by BeginCompact (slow
// disk work, no locks the serving path cares about), finished by
// Commit (rename into place + fast meta swap + WAL reset) or Abort.
// The split lets the service layer capture graph state, write the
// snapshot with mutations flowing, and take the entry's mutation lock
// only for the commit — after re-checking that no batch advanced the
// version past what the snapshot captures.
type PendingCompact struct {
	s        *Store
	gs       *graphStore
	name     string
	snapName string
	version  uint64
	began    time.Time
}

// BeginCompact writes g (the graph at version, with its maintained
// coloring) as a pending snapshot file for name and returns the
// pending handle. Nothing is adopted yet; a crash here leaves only a
// stray .pending file Recover sweeps.
func (s *Store) BeginCompact(name string, g *graph.Graph, colors []uint32, version uint64) (*PendingCompact, error) {
	gs, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	began := time.Now()
	snapName := fmt.Sprintf("snapshot-%d.pcs", version)
	if _, err := WriteSnapshotFile(filepath.Join(gs.dir, snapName+pendingSuffix), g, colors, version); err != nil {
		return nil, err
	}
	return &PendingCompact{s: s, gs: gs, name: name, snapName: snapName, version: version, began: began}, nil
}

// Abort discards the pending snapshot file. The adopted snapshot is
// untouchable by construction: the pending name always carries the
// .pending suffix, which no meta.json ever references.
func (p *PendingCompact) Abort() {
	_ = os.Remove(filepath.Join(p.gs.dir, p.snapName+pendingSuffix))
}

// Commit adopts the pending snapshot: rename it to its final name,
// point meta at it, reset the WAL and delete the superseded snapshot
// file. The caller must guarantee no batch with version > p.version
// has been applied or appended (the service layer holds the entry's
// mutation lock across the version re-check and this call). Crash-safe
// at every point: the rename-then-meta-then-reset order (each fenced
// by a directory fsync) means recovery sees either the old (snapshot,
// full WAL) pair or the new (snapshot, WAL suffix) pair, with
// already-folded records skipped by version. When the final name
// equals the live snapshot's (re-folding an already-folded version),
// the rename atomically replaces it with an equally valid snapshot of
// the same version, so there is no window without a bootable file.
func (p *PendingCompact) Commit() error {
	gs := p.gs
	gs.mu.Lock()
	defer gs.mu.Unlock()
	defer gs.publishSizes()
	if gs.wal == nil {
		return fmt.Errorf("store: graph %q not persisted", p.name)
	}
	finalPath := filepath.Join(gs.dir, p.snapName)
	if err := os.Rename(filepath.Join(gs.dir, p.snapName+pendingSuffix), finalPath); err != nil {
		return err
	}
	// Fence: the snapshot's directory entry must be durable before
	// meta.json can reference it (writeMeta's own dir fsync would cover
	// both renames, but not their order on a crash in between).
	//
	// On any failure from here on, the renamed file is NOT removed,
	// even though it is probably unadopted: a previous Commit's
	// writeMeta may have failed after its meta.json rename landed on
	// disk, leaving the in-memory gs.meta stale — so "p.snapName !=
	// gs.meta.Snapshot" cannot prove the file is unreferenced, and
	// deleting a referenced snapshot makes the directory unbootable.
	// The boot-time sweep, which decides from the on-disk meta.json
	// (the only safe authority), reclaims truly orphaned files.
	if err := syncDir(gs.dir); err != nil {
		return err
	}
	oldSnap := gs.meta.Snapshot
	newMeta := gs.meta
	newMeta.Snapshot = p.snapName
	newMeta.SnapshotVersion = p.version
	if err := writeMeta(gs.dir, newMeta); err != nil {
		return err
	}
	gs.meta = newMeta
	if err := gs.wal.Reset(); err != nil {
		return err
	}
	gs.lastVersion = p.version
	// Keep the superseded mapping alive (the served base graph may
	// alias it) but drop its file; the new snapshot is opened so its
	// mapping is ready for the next recovery-free restart and so Stats
	// can report real sizes.
	if gs.snap != nil {
		gs.retired = append(gs.retired, gs.snap)
		gs.snap = nil
	}
	if oldSnap != "" && oldSnap != p.snapName {
		_ = os.Remove(filepath.Join(gs.dir, oldSnap))
	}
	snap, err := OpenSnapshot(filepath.Join(gs.dir, p.snapName))
	if err != nil {
		return err
	}
	gs.snap = snap
	p.s.compactions.Add(1)
	if o := p.s.observer.Load(); o != nil && o.CompactionSeconds != nil {
		o.CompactionSeconds(time.Since(p.began).Seconds())
	}
	return nil
}

// Compact is BeginCompact + Commit in one call, for callers that
// already guarantee no concurrent appends (tests, single-threaded
// tools). The serving path uses the two-phase form.
func (s *Store) Compact(name string, g *graph.Graph, colors []uint32, version uint64) error {
	p, err := s.BeginCompact(name, g, colors, version)
	if err != nil {
		return err
	}
	return p.Commit()
}

// Recover scans the data directory, opening every graph: snapshots are
// mapped, WALs replayed (torn tails truncated) and filtered to the
// records newer than the snapshot. The store keeps the WALs open for
// appending; the caller (service layer) registers the graphs and
// replays the batches through the dynamic overlay.
func (s *Store) Recover() ([]RecoveredGraph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	root := filepath.Join(s.dir, "graphs")
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var out []RecoveredGraph
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(root, ent.Name())
		metaPath := filepath.Join(dir, "meta.json")
		data, err := os.ReadFile(metaPath)
		if err != nil {
			if os.IsNotExist(err) {
				// A crash before writeMeta leaves a directory without
				// meta.json: nothing in it was ever acknowledged, so the
				// whole directory is debris — including a potentially huge
				// snapshot-0.pcs (or its .snap-* temp) from an upload
				// registration that died mid-write. Remove it; a re-register
				// of the name rebuilds everything. Only dirs the store
				// itself names (dirName's g-/x- prefixes) are touched —
				// anything else under graphs/ (lost+found, an operator's
				// scratch dir) is skipped, never deleted.
				if name := ent.Name(); strings.HasPrefix(name, "g-") || strings.HasPrefix(name, "x-") {
					_ = os.RemoveAll(dir)
				}
				continue
			}
			return nil, err
		}
		var meta Meta
		if err := json.Unmarshal(data, &meta); err != nil {
			return nil, fmt.Errorf("store: %s: %v", metaPath, err)
		}
		if meta.Name == "" {
			return nil, fmt.Errorf("store: %s: missing graph name", metaPath)
		}
		if _, dup := s.graphs[meta.Name]; dup {
			return nil, fmt.Errorf("store: graph %q recovered twice", meta.Name)
		}
		// Sweep crash debris: .pending leftovers from a crash between
		// BeginCompact and Commit, final-named snapshots a crash (or
		// failed meta write) left unreferenced by meta.json, and the
		// .snap-*/.meta-* CreateTemp files a kill mid-write strands
		// (the .snap-* window — a potentially multi-hundred-MB snapshot
		// write — is the longest). None was ever adopted, so all are
		// dead weight that would otherwise survive every restart. Plain
		// ReadDir + name match — no globbing, since the operator's data
		// directory may legally contain glob metacharacters.
		if files, err := os.ReadDir(dir); err == nil {
			for _, fe := range files {
				fn := fe.Name()
				if fe.IsDir() || fn == meta.Snapshot {
					continue
				}
				if strings.HasSuffix(fn, pendingSuffix) ||
					(strings.HasPrefix(fn, "snapshot-") && strings.HasSuffix(fn, ".pcs")) ||
					strings.HasPrefix(fn, ".snap-") || strings.HasPrefix(fn, ".meta-") {
					_ = os.Remove(filepath.Join(dir, fn))
				}
			}
		}
		gs := &graphStore{dir: dir, meta: meta}
		rg := RecoveredGraph{Name: meta.Name, Spec: meta.Spec, SnapshotVersion: meta.SnapshotVersion}
		if meta.Snapshot != "" {
			snap, err := OpenSnapshot(filepath.Join(dir, meta.Snapshot))
			if err != nil {
				return nil, fmt.Errorf("store: graph %q: %v", meta.Name, err)
			}
			if snap.GraphVersion != meta.SnapshotVersion {
				snap.Close()
				return nil, fmt.Errorf("store: graph %q: snapshot at version %d, meta says %d",
					meta.Name, snap.GraphVersion, meta.SnapshotVersion)
			}
			gs.snap = snap
			rg.Base = snap.Graph
			rg.Colors = snap.Colors
		}
		wal, records, truncated, err := OpenWAL(filepath.Join(dir, "wal.log"))
		if err != nil {
			if gs.snap != nil {
				gs.snap.Close()
			}
			return nil, fmt.Errorf("store: graph %q: %v", meta.Name, err)
		}
		gs.wal = wal
		rg.WALTruncated = truncated
		if truncated {
			s.truncatedWALs++
		}
		// Skip records already folded into the snapshot (crash between
		// compaction's meta swap and WAL reset re-reads the full log).
		gs.lastVersion = meta.SnapshotVersion
		for _, rec := range records {
			if rec.Version <= meta.SnapshotVersion {
				rg.SkippedRecords++
				continue
			}
			rg.Records = append(rg.Records, rec)
			gs.lastVersion = rec.Version
		}
		gs.publishSizes()
		s.graphs[meta.Name] = gs
		s.recoveredGraphs++
		s.replayedBatches += len(rg.Records)
		out = append(out, rg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Stats snapshots the store gauges. Sizes are each graph's last
// published ones, read without its lock: /metrics never stalls behind
// a WAL fsync or a multi-MB snapshot write, and a graph that is busy
// with one still counts.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Dir:             s.dir,
		Graphs:          len(s.graphs),
		WALAppends:      s.walAppends.Load(),
		Compactions:     s.compactions.Load(),
		RecoveredGraphs: s.recoveredGraphs,
		ReplayedBatches: s.replayedBatches,
		TruncatedWALs:   s.truncatedWALs,
	}
	for _, gs := range s.graphs {
		if b := gs.snapBytes.Load(); b > 0 {
			st.Snapshots++
			st.SnapshotBytes += b
		}
		st.WALBytes += gs.walBytes.Load()
		st.WALRecords += gs.walRecords.Load()
	}
	return st
}

// Close fsyncs and closes every WAL and unmaps every snapshot —
// including mappings retired by compaction, which served graphs may
// alias, so Close must only run once no graph is being read anymore
// (colord calls it after the HTTP server has fully drained).
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	graphs := make([]*graphStore, 0, len(s.graphs))
	for _, gs := range s.graphs {
		graphs = append(graphs, gs)
	}
	s.mu.Unlock()
	var first error
	for _, gs := range graphs {
		gs.mu.Lock() // waits out any in-flight append or compaction fold
		if gs.wal != nil {
			if err := gs.wal.Close(); err != nil && first == nil {
				first = err
			}
		}
		if gs.snap != nil {
			if err := gs.snap.Close(); err != nil && first == nil {
				first = err
			}
		}
		for _, old := range gs.retired {
			if err := old.Close(); err != nil && first == nil {
				first = err
			}
		}
		gs.mu.Unlock()
	}
	return first
}
