package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/service"
)

// mutate_rw's batch stream: batch v (the one that makes graph version v)
// inserts batchEdges random new edges and deletes the edges batch
// v-batchLag inserted, so after the first batchLag batches the graph
// keeps its size.
const (
	batchEdges = 64
	batchLag   = 32
	// colors is the sum of the maintained color counts at the versions
	// batchLag + k*colorsStride up to finalVersion; every run writes at
	// least that far, after the measured phase if need be.
	colorsStride = 128
	finalVersion = batchLag + 8*colorsStride
	// sampleStride picks the versions at which a read maintained coloring
	// is kept and checked proper after the run.
	sampleStride = 256
)

// mutateOptions must equal colord's options for maintained colorings;
// the traced run checks that its replica ends at colord's coloring.
var mutateOptions = dynamic.Options{Seed: 1, Epsilon: 0.01, FallbackFraction: 0.25}

// batchStream generates the seeded batches and replays each one on its
// own overlay, which is therefore the graph at the newest version.
type batchStream struct {
	rng      *rand.Rand
	ov       *dynamic.Overlay
	inserted [][]graph.Edge // inserted[v-1] holds the edges batch v inserted
}

func newBatchStream(g *graph.Graph, seed uint64) *batchStream {
	return &batchStream{rng: rand.New(rand.NewPCG(seed, 0x6d75746174650000)), ov: dynamic.NewOverlay(g)}
}

func (s *batchStream) version() uint64 { return uint64(len(s.inserted)) }

// ackWant is what colord must acknowledge for one batch.
type ackWant struct {
	version        uint64
	added, removed int
	n              int
	m              int64
}

// batchAt rebuilds batch v from the insertion history.
func (s *batchStream) batchAt(v uint64) dynamic.Batch {
	b := dynamic.Batch{AddEdges: s.inserted[v-1]}
	if v > batchLag {
		b.DelEdges = s.inserted[v-1-batchLag]
	}
	return b
}

// next generates the next batch, applies it to the stream's overlay and
// returns it with its JSON request body and the acknowledgement it must get.
func (s *batchStream) next() (dynamic.Batch, []byte, ackWant, error) {
	n := s.ov.NumVertices()
	add := make([]graph.Edge, 0, batchEdges)
	seen := make(map[graph.Edge]bool, batchEdges)
	for len(add) < batchEdges {
		u, v := uint32(s.rng.IntN(n)), uint32(s.rng.IntN(n))
		if u == v {
			continue
		}
		e := graph.Edge{U: min(u, v), V: max(u, v)}
		if seen[e] || s.ov.HasEdge(e.U, e.V) {
			continue
		}
		seen[e] = true
		add = append(add, e)
	}
	s.inserted = append(s.inserted, add)
	b := s.batchAt(s.version())
	diff, err := s.ov.Apply(b)
	if err != nil {
		return b, nil, ackWant{}, err
	}
	want := ackWant{version: s.version(), added: len(diff.Added), removed: len(diff.Removed), n: s.ov.NumVertices(), m: s.ov.NumEdges()}
	if s.ov.Version() != want.version || want.added != len(b.AddEdges) || want.removed != len(b.DelEdges) {
		return b, nil, want, fmt.Errorf("batch stream: batch %d changed %d/%d edges at version %d", want.version, want.added, want.removed, s.ov.Version())
	}
	body, err := json.Marshal(service.MutateRequest{AddEdges: edgePairs(b.AddEdges), DelEdges: edgePairs(b.DelEdges)})
	return b, body, want, err
}

func edgePairs(es []graph.Edge) [][2]uint32 {
	out := make([][2]uint32, len(es))
	for i, e := range es {
		out[i] = [2]uint32{e.U, e.V}
	}
	return out
}

// checkAck decodes a mutate response and compares it with want.
func checkAck(body []byte, want ackWant) (*service.MutateResponse, error) {
	var r service.MutateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("mutate ack: %w", err)
	}
	if r.Version != want.version || r.AddedEdges != want.added || r.RemovedEdges != want.removed || r.N != want.n || r.M != want.m {
		return nil, fmt.Errorf("mutate ack: version %d added %d removed %d n %d m %d, want %+v",
			r.Version, r.AddedEdges, r.RemovedEdges, r.N, r.M, want)
	}
	return &r, nil
}

// binHeader parses the fixed header of a /v1/color/bin body and checks
// the body length; the colors follow at offset 40. The read loop needs only
// the header, and service.DecodeColorBin would also copy out all n colors.
func binHeader(b []byte) (version uint64, numColors int, n int, err error) {
	if len(b) < 40 || string(b[:8]) != "PCCOLOR1" {
		return 0, 0, 0, fmt.Errorf("binary coloring: bad header")
	}
	version = binary.LittleEndian.Uint64(b[8:])
	n = int(binary.LittleEndian.Uint32(b[32:]))
	numColors = int(binary.LittleEndian.Uint32(b[36:]))
	if len(b) != 40+4*n {
		return 0, 0, 0, fmt.Errorf("binary coloring: %d bytes for n=%d", len(b), n)
	}
	return version, numColors, n, nil
}
