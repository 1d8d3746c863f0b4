package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// graphName is the registry name every workload gives its graph.
const graphName = "g"

// daemon is one server subprocess, colord or the reference server,
// listening on a loopback port.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	flags []string
	done  chan struct{}
}

// startColord starts colord at its default flags (only the listen
// address is chosen) and returns once /healthz answers.
func startColord(bin string) (*daemon, error) {
	return startServer("colord", bin, "/healthz", func(addr string) []string { return []string{"-addr", addr} })
}

// startServer starts bin on a free loopback port with the flags that
// flags gives for its address, and returns once GET path answers 200.
func startServer(name, bin, path string, flags func(addr string) []string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr, flags: flags(addr), done: make(chan struct{})}
	d.cmd = exec.Command(bin, d.flags...)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even when it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is irrelevant once stop was asked for
		close(d.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited before serving", name)
		default:
		}
		if resp, err := probe.Get(d.base + path); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("%s did not answer %s within 20s", name, path)
}

// stop asks the server to drain and exit, kills it after 10 s, and
// returns once the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// register adds the workload graph from a generator spec.
func (d *daemon) register(c *conn, spec string) error {
	body, _ := json.Marshal(map[string]string{"name": graphName, "spec": spec}) // a string map always encodes
	_, err := c.do(http.MethodPost, d.base+"/v1/graphs", body, "application/json")
	return err
}

// goMaxProcs reads colord's GOMAXPROCS from /metrics.
func (d *daemon) goMaxProcs(c *conn) (int, error) {
	b, err := c.do(http.MethodGet, d.base+"/metrics", nil, "")
	if err != nil {
		return 0, err
	}
	var m struct {
		GoMaxProcs int `json:"goMaxProcs"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return 0, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m.GoMaxProcs, nil
}

// conn is one keep-alive HTTP connection of the closed-loop generator.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and returns the response body, which stays valid
// until the next call on c. Any status but 200 and 201 is an error.
func (c *conn) do(method, url string, body []byte, contentType string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(c.buf.String()))
	}
	return c.buf.Bytes(), nil
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
const clockTicks = 100

// procCPUSeconds returns the user+system CPU time of process pid.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// procThreadsCPUSeconds returns the CPU time of process pid's live
// threads, summed from their schedstat files, which count nanoseconds.
func procThreadsCPUSeconds(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns uint64
	for _, e := range ents {
		b, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, e.Name())
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, e.Name(), err)
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// procPeakRSSMiB returns VmHWM, the peak resident set of process pid.
func procPeakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// hostCPU is the aggregate line of /proc/stat, in ticks.
type hostCPU struct{ total, steal uint64 }

// readHostCPU reads /proc/stat. Steal is a diagnostic of the run record,
// so an unreadable file or field counts as zero rather than failing a run.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var h hostCPU
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// Fields 0..7 are user nice system idle iowait irq softirq steal;
		// guest time is already included in user.
		if i < 8 {
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the host's steal time over all CPU time between a and b.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// selfCPUSeconds is the benchmark process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
