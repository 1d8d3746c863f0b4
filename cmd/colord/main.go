// Command colord is the parcolor coloring daemon: it loads graphs once
// into shared immutable CSR, colors them on demand over the process-wide
// persistent fork-join pool, caches results (sound: every algorithm is
// Las Vegas and seed-deterministic) and serves an HTTP JSON API.
//
// Usage:
//
//	colord [-addr :8712] [-max-inflight N] [-cache-entries N]
//	       [-timeout 30s] [-preload name=spec,name=spec]
//
// # Quick start
//
// Start the daemon with a preloaded scale-12 Kronecker graph:
//
//	colord -addr 127.0.0.1:8712 -preload kron12=kron:12
//
// Or register graphs at runtime — from a generator spec:
//
//	curl -s -X POST localhost:8712/v1/graphs \
//	     -d '{"name":"kron12","spec":"kron:12"}'
//
// or by uploading a payload (edgelist, dimacs or mm):
//
//	curl -s -X POST localhost:8712/v1/graphs \
//	     -d '{"name":"tri","format":"edgelist","data":"0 1\n1 2\n2 0\n"}'
//
// List what is loaded:
//
//	curl -s localhost:8712/v1/graphs
//
// Color a graph (any algorithm of parcolor.Algorithms(); epsilon
// defaults to 0.01, procs to a fair share of the cores, GOMAXPROCS
// divided by the runs in flight; set includeColors for the full array;
// timeoutMillis for a per-request deadline):
//
//	curl -s -X POST localhost:8712/v1/color \
//	     -d '{"graph":"kron12","algorithm":"JP-ADG","seed":1}'
//
// Repeating the identical request is served from the result cache
// ("cached": true). Watch request counts, the cache hit rate and the
// fork-join pool counters:
//
//	curl -s localhost:8712/metrics
//
// # Mutations
//
// Graphs are mutable: POST a batch of edge/vertex insertions and
// deletions and the daemon repairs a maintained coloring incrementally
// (a localized JP-ADG-style pass over the conflict frontier; see
// internal/dynamic):
//
//	curl -s -X POST localhost:8712/v1/graphs/kron12/mutate \
//	     -d '{"addEdges":[[0,1],[5,9]],"delEdges":[[2,3]],"addVertices":1}'
//
// The response reports the new graph version, the conflict frontier
// size, how many vertices the repair recolored and whether it fell
// back to a full recolor. Every mutation bumps the graph's version;
// /v1/color responses carry the version they were computed against and
// the result cache keys on it, so a stale coloring can never be served
// across a mutation. Inspect a single graph (including its version)
// with:
//
//	curl -s localhost:8712/v1/graphs/kron12
//
// Drive sustained load — including a mixed color/mutate workload with
// client-side verification against a replayed mutation log — with
// cmd/colorload.
//
// # Persistence
//
// With -data-dir the daemon is durable: every registered graph is
// persisted (generator specs as metadata, uploads as checksummed
// binary snapshots), every applied mutation batch is appended to a
// per-graph fsync'd write-ahead log before the response is sent, and
// on boot the daemon recovers the exact pre-crash state — snapshots
// load via mmap (no text parsing, arrays served from the page cache),
// WALs replay through the incremental-repair engine to the exact
// graphVersion, and torn tails from a kill -9 are detected by checksum
// and truncated, never half-applied:
//
//	colord -addr 127.0.0.1:8712 -data-dir /var/lib/colord
//
// Once a WAL passes -compact-bytes the daemon folds it into a fresh
// snapshot (embedding the maintained coloring) in the background;
// force it before a planned restart with:
//
//	curl -s -X POST localhost:8712/v1/admin/compact -d '{"graph":"kron12"}'
//
// /metrics carries the snapshot/WAL byte and record gauges plus
// append, compaction and recovery counters. On SIGTERM the daemon
// drains inflight jobs, fsyncs every WAL and exits cleanly.
//
// # Clustering
//
// With -cluster-self and -cluster-peers the daemon is one member of a
// sharded multi-node service: every graph is placed on a primary plus
// R-1 replicas by rendezvous hashing over the static member list (any
// node computes ownership locally — no coordinator), requests for
// graphs a node does not own are transparently proxied to the active
// primary, applied mutation batches are streamed to the replicas
// before the client ack (kill -9 of a primary loses no batch that was
// acknowledged while a replica was reachable — the mutate response's
// "replicated" field counts the durable acks), and when a primary is
// probed down the next node in
// rendezvous order promotes itself, catching up from a peer's WAL
// tail before accepting writes:
//
//	colord -addr 127.0.0.1:8712 -data-dir /var/lib/colord-1 \
//	       -cluster-self http://127.0.0.1:8712 \
//	       -cluster-peers http://127.0.0.1:8712,http://127.0.0.1:8713,http://127.0.0.1:8714
//
// Every node wants its own -data-dir: replication appends to the
// replica's WAL before acking, and catch-up serves peers straight
// from it. Inspect membership, per-graph placement, roles and
// replication watermarks via:
//
//	curl -s localhost:8712/v1/cluster/status
//
// # Leases and self-healing
//
// On clusters of 3+ members the primary additionally holds an
// epoch-stamped write lease granted by a majority of the member set
// (term: -cluster-lease; defaults to 4x the probe interval; negative
// disables). A primary isolated from the majority stops acking writes
// within one lease term — requests get a 503 naming the fence — so a
// healed partition can never produce two acked histories. Replicas a
// WAL tail cannot heal (records compacted away everywhere, a chain
// forked below a provably-ahead primary, or an upload-format graph
// whose bytes the node never saw) resync automatically: a full
// checksummed snapshot ships from the active primary, the remaining
// tail replays on top, and the node rejoins with zero manual steps.
// Lease terms, grants and the leaseRenewals/leaseFenced/resyncs
// counters surface in /v1/cluster/status and /metrics.
//
// # Quality SLO
//
// With -recolor the daemon treats coloring quality as a background
// service objective: whenever no coloring or mutation job is inflight,
// a worker runs bounded iterated-greedy passes (Culberson-style; see
// internal/recolor) over each held graph's maintained coloring and
// adopts the result only when it strictly reduces the distinct color
// count — the maintained coloring can only ever get better, and the
// graph version does NOT change (the graph didn't, only its palette).
// Adopted improvements purge the affected cache entries, re-fold the
// store snapshot when -data-dir is set (so they survive restarts), and
// on a cluster ship from the graph's primary to its replicas:
//
//	colord -addr :8712 -preload big=kron:12 -recolor \
//	       -recolor-interval 250ms -recolor-budget 4
//
// Give a graph an objective — registration's "targetColors" field or
// PATCH /v1/graphs/{id}/quality — and its SLO state (met/burning),
// pass counts and colors saved appear on GET /v1/graphs/{id}/quality,
// in graph listings and on /metrics:
//
//	curl -s -X PATCH localhost:8712/v1/graphs/big/quality \
//	     -d '{"targetColors":20}'
//	curl -s localhost:8712/v1/graphs/big/quality
//
// On a cluster, GET /v1/cluster/metrics on ANY node returns one
// cluster-level document: per-node metrics plus an aggregate with
// summed counters and bucket-merged latency histograms (quantiles are
// computed from the merged buckets, never averaged averages). JSON by
// default, Prometheus exposition with ?format=prom.
//
// # Fault injection
//
// -fault-injection (never in production) arms the deterministic chaos
// surface: a seed-driven schedule of failed WAL fsyncs, delayed or
// blackholed RPCs and process crashes at chosen lines, parsed from
// -faults (or COLORD_FAULTS) at startup and rearmed at runtime via
// POST /v1/admin/faults — see internal/faultinject for the rule
// grammar and scripts/chaostest.sh for the seeded failure matrix CI
// drives through it:
//
//	colord ... -fault-injection \
//	       -faults 'point=wal.fsync,mode=fail,after=2,count=1'
//
// # Observability
//
// /metrics content-negotiates: the default JSON document is unchanged,
// and Prometheus text exposition format is served when the client asks
// for it. obs registries render it from the counters, histograms and
// snapshot the JSON document reads: each JSON value has one typed
// family (counters end in _total), plus the latency histograms:
//
//	curl -s localhost:8712/metrics?format=prom
//	curl -s -H 'Accept: text/plain' localhost:8712/metrics
//
// Every request is stamped with an X-Colord-Request-Id header
// (client-supplied IDs are honored and propagated across proxy hops
// and replication RPCs); the last N completed requests with their
// per-phase spans are inspectable via:
//
//	curl -s 'localhost:8712/v1/debug/trace?last=20'
//	curl -s 'localhost:8712/v1/debug/trace?id=<request-id>'
//
// -log-format json enables structured per-request logging (sampled
// with -log-sample N: every Nth request; 5xx responses always log).
// -debug-addr exposes net/http/pprof and /debug/vars on a SEPARATE
// listener — bind it to localhost only, it is unauthenticated:
//
//	colord -addr :8712 -debug-addr 127.0.0.1:6060 -log-format json
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/quality"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr    = flag.String("addr", ":8712", "HTTP listen address")
		maxInfl = flag.Int("max-inflight", 0, "max concurrently executing coloring runs (<=0: GOMAXPROCS)")
		cacheN  = flag.Int("cache-entries", 256, "result cache capacity in entries (<=0 disables caching)")
		timeout = flag.Duration("timeout", 30*time.Second, "default per-request deadline (0 disables)")
		preload = flag.String("preload", "", "comma-separated name=spec graphs to register at startup (e.g. kron12=kron:12)")
		dataDir = flag.String("data-dir", "", "data directory for durable graphs + mutation WALs (empty: memory-only)")
		compact = flag.Int64("compact-bytes", store.DefaultCompactBytes, "WAL size that triggers background compaction into a snapshot")

		recolorOn  = flag.Bool("recolor", false, "enable the background quality worker: iterated-greedy recoloring of held graphs while the daemon is idle (adoptions only ever reduce the color count)")
		recolorIvl = flag.Duration("recolor-interval", quality.DefaultInterval, "pause between background recolor cycles (with -recolor)")
		recolorBud = flag.Int("recolor-budget", quality.DefaultBudget, "iterated-greedy passes per graph per cycle (with -recolor)")

		clusterSelf  = flag.String("cluster-self", "", "this node's base URL as peers reach it (e.g. http://10.0.0.1:8712); enables clustering together with -cluster-peers")
		clusterPeers = flag.String("cluster-peers", "", "comma-separated base URLs of every cluster member (self is added if absent)")
		clusterRepl  = flag.Int("cluster-replicas", 2, "placement set size per graph: primary + N-1 replicas (clamped to the member count)")
		probeIvl     = flag.Duration("cluster-probe-interval", cluster.DefaultProbeInterval, "liveness probe period")
		failAfter    = flag.Int("cluster-fail-after", cluster.DefaultFailAfter, "consecutive probe/transport failures before a peer is marked down")
		replTimeout  = flag.Duration("cluster-replication-timeout", service.DefaultReplicationTimeout, "per-replica timeout of one synchronous replication call")
		proxyTimeout = flag.Duration("cluster-proxy-timeout", service.DefaultProxyTimeout, "end-to-end deadline of one proxied client request, internal retries included")
		leaseDur     = flag.Duration("cluster-lease", 0, "primary write-lease term; 0 picks 4x the probe interval on clusters of 3+ members, negative disables fencing entirely")

		faultGate = flag.Bool("fault-injection", false, "enable the deterministic fault-injection surface (POST /v1/admin/faults and the -faults flag); never enable in production")
		faultSpec = flag.String("faults", "", "fault schedule to arm at startup (requires -fault-injection); also read from COLORD_FAULTS when the flag is empty")

		debugAddr = flag.String("debug-addr", "", "listen address for the unauthenticated pprof + expvar debug server (empty: disabled); bind to localhost only")
		logFormat = flag.String("log-format", "", "structured per-request logging: json or text (empty: off)")
		logSample = flag.Int64("log-sample", 1, "log every Nth request (5xx responses always log; <=0 logs only 5xx)")
	)
	flag.Parse()

	srv := service.NewServer(service.ManagerConfig{
		MaxInflight:    *maxInfl,
		CacheEntries:   *cacheN,
		DefaultTimeout: *timeout,
	})
	switch *logFormat {
	case "":
	case "json":
		srv.SetRequestLog(slog.New(slog.NewJSONHandler(os.Stderr, nil)), *logSample)
	case "text":
		srv.SetRequestLog(slog.New(slog.NewTextHandler(os.Stderr, nil)), *logSample)
	default:
		fmt.Fprintf(os.Stderr, "colord: -log-format %q: want json or text\n", *logFormat)
		os.Exit(2)
	}
	if *debugAddr != "" {
		// The debug server is its own listener and mux: pprof and expvar
		// never mount on the service handler, so enabling them cannot
		// leak profiles through the public API port.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := ds.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "colord: debug server: %v\n", err)
			}
		}()
		fmt.Printf("colord: debug server (pprof, expvar) on %s\n", *debugAddr)
	}
	if spec := *faultSpec; *faultGate {
		srv.EnableFaultAdmin()
		if spec == "" {
			spec = os.Getenv("COLORD_FAULTS")
		}
		if spec != "" {
			in, err := faultinject.Parse(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "colord: -faults: %v\n", err)
				os.Exit(2)
			}
			faultinject.Enable(in)
			fmt.Printf("colord: fault injection armed: %s\n", in.Spec())
		}
	} else if *faultSpec != "" {
		fmt.Fprintln(os.Stderr, "colord: -faults requires -fault-injection")
		os.Exit(2)
	}

	if *dataDir != "" {
		st, err := store.Open(store.Options{Dir: *dataDir, CompactBytes: *compact})
		if err != nil {
			fmt.Fprintf(os.Stderr, "colord: opening data dir %s: %v\n", *dataDir, err)
			os.Exit(2)
		}
		srv.AttachStore(st)
		rec, err := srv.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "colord: recovering from %s: %v\n", *dataDir, err)
			os.Exit(2)
		}
		fmt.Printf("colord: recovered %d graphs from %s in %.3fs (%d mmap snapshots, %d spec rebuilds, %d WAL batches replayed, %d torn tails truncated)\n",
			rec.Graphs, *dataDir, rec.Seconds, rec.SnapshotLoads, rec.SpecRebuilds, rec.ReplayedBatches, rec.TruncatedWALs)
	}
	var clu *cluster.Cluster
	if *clusterSelf != "" || *clusterPeers != "" {
		if *clusterSelf == "" {
			fmt.Fprintln(os.Stderr, "colord: -cluster-peers needs -cluster-self (this node's base URL)")
			os.Exit(2)
		}
		var peers []string
		if *clusterPeers != "" {
			peers = strings.Split(*clusterPeers, ",")
		}
		// Lease auto-sizing: majority-grant leases need 3+ members to
		// mean anything (with 2, losing either node loses the majority),
		// and a term of a few probe intervals keeps the failover pause —
		// the old grant running out — the same order as failure detection.
		lease := *leaseDur
		if lease == 0 && memberCount(*clusterSelf, peers) >= 3 {
			lease = 4 * *probeIvl
		}
		if lease < 0 {
			lease = 0
		}
		c, err := cluster.New(cluster.Config{
			Self:          *clusterSelf,
			Peers:         peers,
			Replicas:      *clusterRepl,
			ProbeInterval: *probeIvl,
			FailAfter:     *failAfter,
			LeaseDuration: lease,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "colord: %v\n", err)
			os.Exit(2)
		}
		clu = c
		srv.AttachCluster(c, service.ClusterOptions{
			ReplicationTimeout: *replTimeout,
			ProxyTimeout:       *proxyTimeout,
		})
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "colord: warning: clustering without -data-dir — this node cannot serve WAL tails to peers catching up")
		}
		if d := c.LeaseDuration(); d > 0 {
			fmt.Printf("colord: cluster member %s of %d nodes (replicas %d, lease %s)\n", c.Self(), len(c.Nodes()), c.Replicas(), d)
		} else {
			fmt.Printf("colord: cluster member %s of %d nodes (replicas %d, leases off)\n", c.Self(), len(c.Nodes()), c.Replicas())
		}
	}
	if *preload != "" {
		for _, pair := range strings.Split(*preload, ",") {
			name, spec, ok := strings.Cut(pair, "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "colord: -preload entry %q: want name=spec\n", pair)
				os.Exit(2)
			}
			// RegisterSpec persists when a data dir is attached and is
			// idempotent when recovery already restored the name.
			e, err := srv.RegisterSpec(name, spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "colord: -preload %s: %v\n", name, err)
				os.Exit(2)
			}
			st := e.Stats()
			fmt.Printf("colord: preloaded %s (%s): n=%d m=%d version=%d\n", name, spec, st.N, st.M, e.Version())
		}
	}

	if *recolorOn {
		// Start the quality worker last so its first cycle already sees
		// recovered and preloaded graphs. Close stops it before draining.
		srv.EnableRecolor(*recolorIvl, *recolorBud)
		fmt.Printf("colord: background recoloring on (interval %s, budget %d passes/graph/cycle)\n", *recolorIvl, *recolorBud)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("colord: listening on %s\n", *addr)
	if clu != nil {
		clu.Start() // probe peers only once we can answer their probes
		defer clu.Stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "colord: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("colord: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Stop the listener and wait for inflight HTTP exchanges, then
		// drain the job manager and flush the store (fsync WALs, unmap
		// snapshots) — the service-level half of graceful shutdown.
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "colord: shutdown: %v\n", err)
			os.Exit(1)
		}
		if err := srv.Close(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "colord: close: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("colord: drained and flushed, bye\n")
	}
}

// memberCount is the effective cluster size: self plus every distinct
// peer URL that is not self (mirrors cluster.New's normalization
// closely enough for the lease auto-sizing decision).
func memberCount(self string, peers []string) int {
	seen := map[string]bool{strings.TrimRight(strings.TrimSpace(self), "/"): true}
	for _, p := range peers {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			seen[p] = true
		}
	}
	return len(seen)
}
