package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/service"
)

// readSpec is one read workload: the graph it reads colorings of, and
// whether every request bypasses colord's result cache.
type readSpec struct {
	spec    string
	noCache bool
}

var readWorkloads = map[string]readSpec{
	// n=16,384, m=213,166: a 64 KiB coloring per response.
	"warm_read": {spec: "kron:14"},
	// n=32,768, m=441,419: every request runs harness.RunChecked.
	"cold_color": {spec: "kron:15", noCache: true},
}

// inProcessConfig mirrors colord's default flags for the in-process
// servers of the traced run.
var inProcessConfig = service.ManagerConfig{CacheEntries: 256, DefaultTimeout: 30 * time.Second}

// warmKeys registers the graph and requests every key once, spread over
// the connections; it returns the response bodies by key index.
func warmKeys(d *daemon, conns []*conn, spec string, paths []string, order []int) ([][]byte, error) {
	if err := d.register(conns[0], spec); err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(paths))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := ci; j < len(order); j += len(conns) {
				b, err := c.do(http.MethodGet, d.base+paths[order[j]], nil, "")
				if err != nil {
					errs[ci] = err
					return
				}
				bodies[order[j]] = bytes.Clone(b)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// runRead runs warm_read or cold_color. Traced, each operation goes down
// the layer ladder; untraced, only colord is called.
func runRead(cfg runConfig, w readSpec, traced bool) (*outcome, error) {
	o := newOutcome()
	ks := allKeys()
	g, err := buildGraph(o, w.spec, traced)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(ks))
	for i, k := range ks {
		paths[i] = k.path(w.noCache)
	}

	// The traced run first runs the engine once per key, alone in the
	// process, for the per-key counts and the set-up engine times.
	var refs []*harness.RunResult
	var engine []engineSample
	if traced {
		for _, k := range ks {
			algo, err := harness.Lookup(k.algo)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := harness.RunChecked(algo, g, harness.Config{Seed: k.seed, Epsilon: keyEps})
			if err != nil {
				return nil, err
			}
			engine = append(engine, engineSample{k.algo, msSince(start), res.Phases})
			refs = append(refs, res)
		}
	}

	conns := []*conn{newConn(), newConn()}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	setupOrder := make([]int, len(ks))
	ord := newKeyOrder(cfg.seed, 0, len(ks))
	for i := range setupOrder {
		setupOrder[i] = ord.next()
	}
	var d *daemon
	var ref [][]byte
	for rep := 0; rep < cfg.setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		if d, err = startColord(cfg.colord); err != nil {
			return nil, err
		}
		bodies, err := warmKeys(d, conns, w.spec, paths, setupOrder)
		o.setup = append(o.setup, time.Since(start).Seconds())
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if ref == nil {
			ref = bodies
		} else if err := sameBodies(ks, ref, bodies); err != nil {
			o.fail(err)
		}
	}
	defer d.stop()
	o.colordFlags = d.flags

	colorings, colors, checkMs, err := checkKeyBodies(g, ks, ref)
	o.attempted += int64(len(ks))
	if err != nil {
		o.fail(err)
		return o, nil
	}
	o.colors, o.checkMs = colors, checkMs
	for i := range refs {
		if !slices.Equal(refs[i].Colors, colorings[i]) {
			o.fail(fmt.Errorf("key %v: in-process engine and colord disagree", ks[i]))
			return o, nil
		}
	}

	var srv *service.Server
	var tr *tracer
	if traced {
		srv = service.NewServer(inProcessConfig)
		defer srv.Close(context.Background())
		if _, err := srv.Registry().Add(graphName, w.spec, g); err != nil {
			return nil, err
		}
		if !w.noCache {
			for _, k := range ks {
				if _, err := srv.Manager().Color(context.Background(), colorRequest(k, w.noCache)); err != nil {
					return nil, err
				}
			}
		}
		tr = newTracer()
	}

	stats := make([]loopStats, len(conns))
	loops := make([]func(time.Time), len(conns))
	for ci, c := range conns {
		ord := newKeyOrder(cfg.seed, uint64(ci+1), len(ks))
		st := &stats[ci]
		loops[ci] = func(deadline time.Time) {
			for time.Now().Before(deadline) {
				i := ord.next()
				st.attempted++
				if traced {
					if err := readLadder(tr, srv, g, d, c, ks[i], paths[i], ref[i], colorings[i], w.noCache); err != nil {
						st.fail(err)
					}
					continue
				}
				o.gate.RLock()
				start := time.Now()
				b, err := c.do(http.MethodGet, d.base+paths[i], nil, "")
				lat := msSince(start)
				o.gate.RUnlock()
				if err == nil && !bytes.Equal(b, ref[i]) {
					err = fmt.Errorf("key %v: coloring differs from the verified one", ks[i])
				}
				if err != nil {
					st.fail(err)
					continue
				}
				st.lat = append(st.lat, lat)
			}
		}
	}
	var cache0 service.CacheStats
	if traced {
		cache0 = srv.Manager().Cache().Stats()
	}
	if err := o.measure(cfg, d, loops...); err != nil {
		return nil, err
	}
	for i := range stats {
		o.merge(&stats[i])
		o.mainLat = append(o.mainLat, stats[i].lat...)
	}
	o.readLat, o.ops = o.mainLat, len(o.mainLat)
	if err := o.serverState(d, conns[0]); err != nil {
		return nil, err
	}
	if !traced {
		return o, nil
	}

	o.tracer, o.ops = tr, len(tr.recs)
	if w.noCache {
		// cold_color's engine times come from the measured operations,
		// warm_read's from its set-up runs.
		engine = nil
		for _, r := range tr.recs {
			engine = append(engine, engineSample{r.algo, float64(r.dur(1)) / 1e6, r.phases})
		}
	}
	l := o.layers
	engineLayers(l, engine, ks, refs)
	c1 := srv.Manager().Cache().Stats()
	l["service.cache_hit_ratio"] = service.CacheStats{Hits: c1.Hits - cache0.Hits, Misses: c1.Misses - cache0.Misses}.HitRate()
	var n int
	l["colord.read_rtt_us"] = tr.spanP50("color", "", 4)
	l["colord.read_transport_us"], n = tr.selfP50("color", "", 4)
	l["service.read_handler_us"], _ = tr.selfP50("color", "", 3)
	l["service.jobs_us"], _ = tr.selfP50("color", "", 2)
	o.samples["traced_reads"] = n
	selfs := []float64{l["colord.read_transport_us"], l["service.read_handler_us"], l["service.jobs_us"]}
	if w.noCache {
		selfs = append(selfs, tr.spanP50("color", "", 1))
	}
	o.mainRTT = l["colord.read_rtt_us"]
	o.selfSumGap = additivity(o.mainRTT, selfs...)
	return o, nil
}

func colorRequest(k key, noCache bool) service.ColorRequest {
	return service.ColorRequest{Graph: graphName, Algorithm: k.algo, Seed: k.seed, Epsilon: keyEps, IncludeColors: true, NoCache: noCache}
}

// readLadder issues one read at every depth of the layer ladder and
// checks each depth's coloring against the verified one.
func readLadder(tr *tracer, srv *service.Server, g *graph.Graph, d *daemon, c *conn, k key, path string, ref []byte, want []uint32, noCache bool) error {
	r := tr.begin("color", k.algo)
	if noCache {
		algo, err := harness.Lookup(k.algo)
		if err != nil {
			return err
		}
		var res *harness.RunResult
		tr.time(r, 1, func() { res, err = harness.RunChecked(algo, g, harness.Config{Seed: k.seed, Epsilon: keyEps}) })
		if err != nil {
			return err
		}
		if !slices.Equal(res.Colors, want) {
			return fmt.Errorf("key %v: harness.RunChecked coloring differs", k)
		}
		r.phases = res.Phases
	}
	var resp *service.ColorResponse
	var err error
	tr.time(r, 2, func() { resp, err = srv.Manager().Color(context.Background(), colorRequest(k, noCache)) })
	if err != nil {
		return err
	}
	if resp.Cached == noCache || !slices.Equal(resp.Colors, want) {
		return fmt.Errorf("key %v: Manager.Color coloring differs (cached %v)", k, resp.Cached)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	tr.time(r, 3, func() { srv.Handler().ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ref) {
		return fmt.Errorf("key %v: in-process handler answered HTTP %d with a different body", k, rec.Code)
	}
	var b []byte
	tr.time(r, 4, func() { b, err = c.do(http.MethodGet, d.base+path, nil, "") })
	if err != nil {
		return err
	}
	if !bytes.Equal(b, ref) {
		return fmt.Errorf("key %v: coloring differs from the verified one", k)
	}
	tr.finish(r)
	return nil
}
