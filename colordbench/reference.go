package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// The reference probe measures the host while a run measures colord.
// On a shared host the speed of a vCPU moves by tens of percent from
// minute to minute (steal, a busy sibling hyperthread, the clock), and
// every time colord takes moves with it. So while the workload runs, the
// benchmark pauses it every refProbeEvery and sends refProbeRequests
// GETs on each of two keep-alive connections to a reference server: this
// binary run with -reference, a bare net/http server answering every
// request with the same refBodyBytes body. That is warm_read's load shape
// with colord's own work taken out. The time metrics of an untraced run
// are colord's figures over the reference's figures from the same run.
const (
	refBodyBytes     = 64 << 10
	refProbeEvery    = 200 * time.Millisecond
	refProbeRequests = 16 // per connection and probe
)

// serveReference is the reference server: it answers every request on
// addr with refBodyBytes bytes until it is stopped.
func serveReference(addr string) error {
	body := make([]byte, refBodyBytes)
	for i := range body {
		body[i] = byte(i)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(body) // a client that hung up fails its own check
	}))
}

// reference is a running reference server and what its probes measured.
type reference struct {
	*daemon
	conns [2]*conn
	lat   []float64 // ms per reference request
	cpu   []float64 // µs of reference-server CPU per request, one per probe
}

// startReference starts the reference server from self, this binary.
func startReference(self string) (*reference, error) {
	d, err := startServer("reference server", self, "/", func(addr string) []string { return []string{"-reference", addr} })
	if err != nil {
		return nil, err
	}
	return &reference{daemon: d, conns: [2]*conn{newConn(), newConn()}}, nil
}

func (r *reference) stop() {
	for _, c := range r.conns {
		c.close()
	}
	r.daemon.stop()
}

// probe sends refProbeRequests requests on each connection at once and
// records each request's time and the server's CPU per request.
func (r *reference) probe() error {
	cpu0, err := procThreadsCPUSeconds(r.pid())
	if err != nil {
		return err
	}
	lats := make([][]float64, len(r.conns))
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for ci, c := range r.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < refProbeRequests; j++ {
				start := time.Now()
				b, err := c.do(http.MethodGet, r.base+"/", nil, "")
				lat := msSince(start)
				if err == nil && len(b) != refBodyBytes {
					err = fmt.Errorf("reference server sent %d bytes, want %d", len(b), refBodyBytes)
				}
				if err != nil {
					errs[ci] = err
					return
				}
				lats[ci] = append(lats[ci], lat)
			}
		}()
	}
	wg.Wait()
	cpu1, err := procThreadsCPUSeconds(r.pid())
	if err != nil {
		return err
	}
	for ci := range r.conns {
		if errs[ci] != nil {
			return errs[ci]
		}
		r.lat = append(r.lat, lats[ci]...)
	}
	r.cpu = append(r.cpu, (cpu1-cpu0)*1e6/float64(len(r.conns)*refProbeRequests))
	return nil
}

// run probes every refProbeEvery until the deadline, each time with the
// workload paused: the loops hold gate for reading around every
// operation, and a probe takes it for writing.
// A run shorter than refProbeEvery still gets one probe.
func (r *reference) run(gate *sync.RWMutex, deadline time.Time) error {
	for {
		time.Sleep(refProbeEvery)
		gate.Lock()
		err := r.probe()
		gate.Unlock()
		if err != nil {
			return fmt.Errorf("reference probe: %w", err)
		}
		if !time.Now().Add(refProbeEvery).Before(deadline) {
			return nil
		}
	}
}
