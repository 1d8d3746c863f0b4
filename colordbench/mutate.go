package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/verify"
)

// mutateSpec is mutate_rw's graph: n=16,384, m=213,166.
const mutateSpec = "kron:14"

const (
	mutatePath     = "/v1/graphs/" + graphName + "/mutate"
	maintainedPath = "/v1/color/bin?graph=" + graphName + "&algorithm=" + service.AlgorithmMaintained
)

// mutateLadder holds the traced run's deeper copies of the graph: a
// dynamic.Colored replica built with colord's options (depth 1), a
// GraphEntry of one in-process server (depth 2) and the handler of a
// second in-process server (depth 3). Every batch goes to all of them.
type mutateLadder struct {
	replica *dynamic.Colored
	entry   *service.GraphEntry
	srvs    []*service.Server
	// results are the replica's repairs of versions batchLag+1 through
	// finalVersion, the fixed set the dynamic counts come from.
	results []*dynamic.Result
}

func newMutateLadder(g *graph.Graph) (*mutateLadder, error) {
	l := &mutateLadder{replica: dynamic.NewColored(g, mutateOptions)}
	for i := 0; i < 2; i++ {
		srv := service.NewServer(inProcessConfig)
		e, err := srv.Registry().Add(graphName, mutateSpec, g)
		if err != nil {
			return nil, err
		}
		l.srvs = append(l.srvs, srv)
		if i == 0 {
			l.entry = e
		}
	}
	return l, nil
}

func (l *mutateLadder) close() {
	for _, s := range l.srvs {
		_ = s.Close(context.Background()) // memory-only: nothing to flush
	}
}

func (l *mutateLadder) handler() http.Handler { return l.srvs[1].Handler() }

// write applies one batch at depths 1 to 3 and checks each version.
func (l *mutateLadder) write(tr *tracer, r *opRec, b dynamic.Batch, body []byte, want ackWant) error {
	var res *dynamic.Result
	var err error
	tr.time(r, 1, func() { res, err = l.replica.Apply(b) })
	if err != nil {
		return err
	}
	if res.Version != want.version {
		return fmt.Errorf("replica at version %d, want %d", res.Version, want.version)
	}
	if want.version > batchLag && want.version <= finalVersion {
		l.results = append(l.results, res)
	}
	var out *service.MutateOutcome
	tr.time(r, 2, func() { out, err = l.entry.Mutate(b, false, nil, nil) })
	if err != nil {
		return err
	}
	if out.Res.Version != want.version {
		return fmt.Errorf("GraphEntry.Mutate at version %d, want %d", out.Res.Version, want.version)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, mutatePath, bytes.NewReader(body))
	tr.time(r, 3, func() { l.handler().ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process mutate: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	_, err = checkAck(rec.Body.Bytes(), want)
	return err
}

// read reads the maintained coloring at depths 2 and 3.
func (l *mutateLadder) read(tr *tracer, r *opRec) error {
	var ok bool
	tr.time(r, 2, func() { _, _, _, ok = l.entry.MaintainedColors() })
	if !ok {
		return fmt.Errorf("GraphEntry has no maintained coloring")
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, maintainedPath, nil)
	tr.time(r, 3, func() { l.handler().ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process maintained read: HTTP %d", rec.Code)
	}
	_, _, _, err := binHeader(rec.Body.Bytes())
	return err
}

// sameEnd checks that every depth ends at colord's maintained coloring,
// which also checks that the replica's options match colord's.
func (l *mutateLadder) sameEnd(colordBody []byte) error {
	want := colordBody[40:]
	if !bytes.Equal(leBytes(l.replica.Colors()), want) {
		return fmt.Errorf("replica's maintained coloring differs from colord's")
	}
	colors, _, _, _ := l.entry.MaintainedColors()
	if !bytes.Equal(leBytes(colors), want) {
		return fmt.Errorf("GraphEntry's maintained coloring differs from colord's")
	}
	rec := httptest.NewRecorder()
	l.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, maintainedPath, nil))
	if !bytes.Equal(rec.Body.Bytes(), colordBody) {
		return fmt.Errorf("in-process handler's maintained coloring differs from colord's")
	}
	return nil
}

func leBytes(colors []uint32) []byte {
	out := make([]byte, 0, 4*len(colors))
	for _, c := range colors {
		out = binary.LittleEndian.AppendUint32(out, c)
	}
	return out
}

// runMutate runs mutate_rw: one connection posts the seeded batches, the
// other reads the maintained coloring of the same graph.
func runMutate(cfg runConfig, traced bool) (*outcome, error) {
	o := newOutcome()
	g, err := buildGraph(o, mutateSpec, traced)
	if err != nil {
		return nil, err
	}
	writer, reader := newConn(), newConn()
	defer writer.close()
	defer reader.close()

	type pending struct {
		batch dynamic.Batch
		body  []byte
		want  ackWant
	}
	var (
		d           *daemon
		stream      *batchStream
		batches     []pending
		numColorsAt []int // by version, from colord's acks
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		stream = newBatchStream(g, cfg.seed)
		batches = make([]pending, batchLag)
		for i := range batches {
			p := &batches[i]
			if p.batch, p.body, p.want, err = stream.next(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if d, err = startColord(cfg.colord); err != nil {
			return nil, err
		}
		acks := make([][]byte, len(batches))
		err = d.register(writer, mutateSpec)
		for i := 0; i < len(batches) && err == nil; i++ {
			var b []byte
			if b, err = writer.do(http.MethodPost, d.base+mutatePath, batches[i].body, "application/json"); err == nil {
				acks[i] = bytes.Clone(b)
			}
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		numColorsAt = make([]int, 1, finalVersion+1)
		o.attempted += int64(len(batches))
		for i, b := range acks {
			ack, err := checkAck(b, batches[i].want)
			if err != nil {
				d.stop()
				o.fail(err)
				return o, nil
			}
			numColorsAt = append(numColorsAt, ack.NumColors)
		}
	}
	defer d.stop()
	o.colordFlags = d.flags

	var tr *tracer
	var lad *mutateLadder
	if traced {
		if lad, err = newMutateLadder(g); err != nil {
			return nil, err
		}
		defer lad.close()
		for _, p := range batches {
			if err := lad.write(nil, nil, p.batch, p.body, p.want); err != nil {
				return nil, err
			}
		}
		tr = newTracer()
	}
	var lastAck atomic.Uint64
	lastAck.Store(stream.version())
	// post sends one batch to colord and checks its acknowledgement.
	post := func(tr *tracer, r *opRec, body []byte, want ackWant) (lat float64, err error) {
		var b []byte
		start := time.Now()
		tr.time(r, 4, func() { b, err = writer.do(http.MethodPost, d.base+mutatePath, body, "application/json") })
		lat = msSince(start)
		if err != nil {
			return 0, err
		}
		ack, err := checkAck(b, want)
		if err != nil {
			return 0, err
		}
		numColorsAt = append(numColorsAt, ack.NumColors)
		lastAck.Store(want.version)
		return lat, nil
	}
	// write issues the stream's next batch at every depth of the ladder.
	write := func(tr *tracer) (float64, error) {
		b, body, want, err := stream.next()
		if err != nil {
			return 0, err
		}
		r := tr.begin("write", "")
		if lad != nil {
			if err := lad.write(tr, r, b, body, want); err != nil {
				return 0, err
			}
		}
		lat, err := post(tr, r, body, want)
		tr.finish(r)
		return lat, err
	}

	var ws, rs loopStats
	samples := map[uint64][]byte{}
	writeLoop := func(deadline time.Time) {
		for time.Now().Before(deadline) {
			ws.attempted++
			o.gate.RLock()
			lat, err := write(tr)
			o.gate.RUnlock()
			if err != nil {
				// A lost batch breaks the version chain: stop writing.
				ws.fail(err)
				return
			}
			ws.lat = append(ws.lat, lat)
		}
	}
	readLoop := func(deadline time.Time) {
		prev := lastAck.Load()
		for time.Now().Before(deadline) {
			rs.attempted++
			r := tr.begin("read", "")
			if lad != nil {
				if err := lad.read(tr, r); err != nil {
					rs.fail(err)
					continue
				}
			}
			var b []byte
			var err error
			o.gate.RLock()
			start := time.Now()
			tr.time(r, 4, func() { b, err = reader.do(http.MethodGet, d.base+maintainedPath, nil, "") })
			lat := msSince(start)
			o.gate.RUnlock()
			tr.finish(r)
			if err != nil {
				rs.fail(err)
				continue
			}
			// A read may see the batch in flight, never a later one.
			v, _, _, err := binHeader(b)
			if err == nil && (v < prev || v > lastAck.Load()+1) {
				err = fmt.Errorf("read version %d after version %d with %d acknowledged", v, prev, lastAck.Load())
			}
			if err != nil {
				rs.fail(err)
				continue
			}
			prev = v
			if v%sampleStride == 0 && samples[v] == nil {
				samples[v] = bytes.Clone(b)
			}
			rs.lat = append(rs.lat, lat)
		}
	}
	if err := o.measure(cfg, d, writeLoop, readLoop); err != nil {
		return nil, err
	}
	o.merge(&ws)
	o.merge(&rs)
	o.mainLat, o.readLat = ws.lat, rs.lat
	o.ops = len(ws.lat) + len(rs.lat)
	if err := o.serverState(d, reader); err != nil {
		return nil, err
	}
	if o.failed > 0 {
		return o, nil
	}

	// Write on, untimed, to the version colors is read at.
	for stream.version() < finalVersion {
		o.attempted++
		if _, err := write(nil); err != nil {
			o.fail(err)
			return o, nil
		}
	}
	for v := batchLag + colorsStride; v <= finalVersion; v += colorsStride {
		o.colors += numColorsAt[v]
	}
	if traced {
		for i := 0; i < 256; i++ {
			r := tr.begin("idle", "")
			tr.time(r, 2, func() { lad.entry.MaintainedColors() })
			tr.finish(r)
		}
	}

	// The final maintained coloring must be colord's newest, proper, and
	// the same at every depth of the ladder.
	o.attempted++
	final, err := reader.do(http.MethodGet, d.base+maintainedPath, nil, "")
	if err == nil {
		final = bytes.Clone(final)
		err = o.checkMaintained(stream.ov, final, stream.version(), numColorsAt)
	}
	if err == nil && lad != nil {
		err = lad.sameEnd(final)
	}
	if err != nil {
		o.fail(fmt.Errorf("final maintained coloring: %w", err))
		return o, nil
	}
	// Replay the stream from the base graph to check the kept samples.
	ov := dynamic.NewOverlay(g)
	for v := uint64(1); v <= stream.version(); v++ {
		if _, err := ov.Apply(stream.batchAt(v)); err != nil {
			return nil, err
		}
		if b, ok := samples[v]; ok {
			o.attempted++
			if err := o.checkMaintained(ov, b, v, numColorsAt); err != nil {
				o.fail(fmt.Errorf("maintained coloring at version %d: %w", v, err))
			}
		}
	}
	o.samples["checked_versions"] = len(samples) + 1
	if !traced {
		return o, nil
	}

	o.tracer = tr
	lay := o.layers
	var n int
	lay["colord.write_rtt_us"] = tr.spanP50("write", "", 4)
	lay["colord.write_transport_us"], n = tr.selfP50("write", "", 4)
	lay["service.write_handler_us"], _ = tr.selfP50("write", "", 3)
	lay["service.entry_mutate_us"], _ = tr.selfP50("write", "", 2)
	lay["dynamic.apply_us"] = tr.spanP50("write", "", 1)
	o.samples["traced_writes"] = n
	lay["colord.read_rtt_us"] = tr.spanP50("read", "", 4)
	lay["colord.read_transport_us"], n = tr.selfP50("read", "", 4)
	lay["service.read_handler_us"], _ = tr.selfP50("read", "", 3)
	lay["service.entry_read_us"] = tr.spanP50("read", "", 2)
	lay["service.entry_read_idle_us"] = tr.spanP50("idle", "", 2)
	o.samples["traced_reads"] = n
	o.mainRTT = lay["colord.write_rtt_us"]
	o.selfSumGap = additivity(o.mainRTT, lay["colord.write_transport_us"],
		lay["service.write_handler_us"], lay["service.entry_mutate_us"], lay["dynamic.apply_us"])
	var conflicts, dirty, repaired, rounds []float64
	var fallbacks, sumRepaired, sumDirty float64
	for _, r := range lad.results {
		conflicts = append(conflicts, float64(r.ConflictEdges))
		dirty = append(dirty, float64(len(r.Dirty)))
		repaired = append(repaired, float64(r.Repaired))
		rounds = append(rounds, float64(r.Rounds))
		sumRepaired += float64(r.Repaired)
		sumDirty += float64(len(r.Dirty))
		if r.Fallback {
			fallbacks++
		}
	}
	lay["dynamic.conflict_edges"] = median(conflicts)
	lay["dynamic.dirty"] = median(dirty)
	lay["dynamic.repaired"] = median(repaired)
	lay["dynamic.rounds"] = median(rounds)
	lay["dynamic.fallbacks"] = fallbacks
	if sumDirty > 0 {
		lay["dynamic.repaired_per_dirty"] = sumRepaired / sumDirty
	}
	o.samples["dynamic_batches"] = len(lad.results)
	return o, nil
}

// checkMaintained checks a maintained-coloring body read at version v
// against the overlay at that version: proper, and with the color count
// colord acknowledged for v.
func (o *outcome) checkMaintained(ov *dynamic.Overlay, body []byte, v uint64, numColorsAt []int) error {
	version, _, _, nc, colors, err := service.DecodeColorBin(body)
	if err != nil {
		return err
	}
	if version != v || ov.Version() != v {
		return fmt.Errorf("read at version %d, checked at version %d", version, ov.Version())
	}
	g, err := ov.Snapshot(0)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := verify.CheckProper(g, colors); err != nil {
		return err
	}
	o.checkMs = append(o.checkMs, msSince(start))
	if got := verify.NumColors(colors); got != nc || nc != numColorsAt[v] {
		return fmt.Errorf("header says %d colors, coloring has %d, acknowledged %d", nc, got, numColorsAt[v])
	}
	return nil
}
