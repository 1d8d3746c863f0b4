package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"

	"repro/internal/harness"
)

// Cache-key read routing: /v1/color requests are routed by a hash of
// the coloring key — (graph, algorithm, seed, epsilon) — to that key's
// "home" node inside the graph's placement set (cluster.KeyHome),
// instead of all landing on the graph's primary. Each key is then
// computed and cached on exactly one node, so the placement set's
// aggregate cache capacity works as one cluster-wide cache: three
// nodes with 4096-entry caches hold 12288 distinct colorings, not the
// same 4096 three times, and the primary stops being the read
// bottleneck.
//
// Responses carry the X-Colord-Cache hint header so clients and
// proxies can observe placement: "home,hit" / "home,miss" mean the
// key's home served it (from cache / computed fresh), bare "hit"
// means an off-home placement member answered from its local cache
// without a hop, bare "miss" marks the fallback serves (forwarded
// request, home unreachable) that computed off-home.

// cacheHeader is the read-path cache placement hint.
const cacheHeader = "X-Colord-Cache"

// keyHomeHeader advertises the key's current home node URL on every
// key-routed read response (Redis MOVED style): a client that sends
// its next request for the same key straight there skips the proxy
// hop entirely. Proxies relay it, so even a response that took the
// extra hop teaches the client where not to hop next time.
const keyHomeHeader = "X-Colord-Key-Home"

// colorRouteKey hashes the routing-relevant part of a color request.
// It must be computable on a node that does NOT hold the graph, from
// the request alone, and agree across nodes — hence the graph VERSION
// is excluded (it stays in the result-cache Key for correctness; see
// internal/cluster/keyroute.go) and algorithm/epsilon are normalized
// exactly like Manager.Color normalizes them (alias → canonical name,
// 0 → the paper's 0.01), so "jp-llf" and "JP-LLF" route identically.
func colorRouteKey(req ColorRequest) uint64 {
	name := req.Algorithm
	if algo, err := harness.Lookup(name); err == nil {
		name = algo.Name
	}
	eps := req.Epsilon
	if eps == 0 {
		eps = 0.01
	}
	h := fnv.New64a()
	io.WriteString(h, req.Graph)
	h.Write([]byte{0})
	io.WriteString(h, name)
	h.Write([]byte{0})
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], req.Seed)
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(eps))
	h.Write(b[:])
	return h.Sum64()
}

// routeColorRead decides where a /v1/color request lands. Returns true
// when it wrote the response itself; false means "serve locally".
//
//   - The key's home node serves (and fills its cache) locally,
//     bootstrapping the graph first if it missed the registration.
//   - An off-home placement member answers from its local cache when
//     the key happens to be resident (no recompute, no extra hop) and
//     otherwise proxies to the home, so the cluster-wide cache fills
//     exactly once per key. Forwarded requests and requests whose
//     whole placement set is down serve locally instead — the member
//     holds the graph, so only cache locality is at stake, never
//     correctness.
//   - A node outside the placement set proxies to the home, with the
//     same hop guard routeRead applies.
//
// render writes a locally-answered cached response in the caller's
// wire format (JSON for /v1/color, binary for /v1/color/bin).
func (s *Server) routeColorRead(w http.ResponseWriter, r *http.Request, req ColorRequest, body []byte, render func(http.ResponseWriter, *ColorResponse)) bool {
	if s.cl == nil {
		return false
	}
	c := s.cl.c
	key := colorRouteKey(req)
	home, homeOK := c.KeyHome(req.Graph, key)
	resolve := func() (string, bool) { return c.KeyHome(req.Graph, key) }
	_, err := s.reg.Get(req.Graph)
	holds := err == nil
	if homeOK && home == c.Self() {
		if holds {
			return false
		}
		// We are the key's home but were down when the graph was
		// registered: bootstrap from the placement peers, or fall
		// through to the same 404 single-node mode produces.
		if _, err := s.ensureSynced(req.Graph); err != nil && !errors.Is(err, ErrNotFound) {
			writeError(w, err)
			return true
		}
		return false
	}
	if holds {
		if resp, ok := s.mgr.ColorCached(req); ok {
			s.clusterKeyLocalHits.Add(1)
			w.Header().Set(cacheHeader, "hit")
			if homeOK {
				w.Header().Set(keyHomeHeader, home)
			}
			render(w, resp)
			return true
		}
		if !homeOK || r.Header.Get(forwardedHeader) != "" {
			return false
		}
		s.proxy(w, r, req.Graph, home, body, resolve)
		return true
	}
	if from := r.Header.Get(forwardedHeader); from != "" {
		s.clusterHopRejections.Add(1)
		unavailable(w, fmt.Errorf("node %s does not hold %q (forwarded from %s)", c.Self(), req.Graph, from))
		return true
	}
	if !homeOK {
		unavailable(w, fmt.Errorf("no alive node in the placement set of %q", req.Graph))
		return true
	}
	s.proxy(w, r, req.Graph, home, body, resolve)
	return true
}

// setCacheHint stamps the X-Colord-Cache header on a locally served
// /v1/color response (cluster mode only; must run before the body is
// written).
func (s *Server) setCacheHint(w http.ResponseWriter, req ColorRequest, hit bool) {
	if s.cl == nil {
		return
	}
	tag := "miss"
	if hit {
		tag = "hit"
	}
	key := colorRouteKey(req)
	if s.cl.c.IsKeyHome(req.Graph, key) {
		s.clusterKeyHomeServes.Add(1)
		tag = "home," + tag
	}
	if home, ok := s.cl.c.KeyHome(req.Graph, key); ok {
		w.Header().Set(keyHomeHeader, home)
	}
	w.Header().Set(cacheHeader, tag)
}
