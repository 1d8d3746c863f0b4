// Command colordbench is the repository's benchmark. It starts colord as
// a subprocess at its default flags, drives one single-node workload over
// two keep-alive connections in a closed loop, checks every output, and
// prints the metrics as the last line of standard output:
//
//	colordbench -colord <binary> -workload warm_read -seed 1 -seconds 10 -trace 0
//
// Workloads are warm_read, cold_color and mutate_rw (see NOTES.md). With
// -trace 0 it prints the end-to-end metrics; with -trace 1 it prints the
// per-layer metrics of the layer ladder (see trace.go). run.sh builds
// colord and this command from the checkout and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. The main operation is the
// read on warm_read and cold_color and the mutate batch on mutate_rw.
// The three time metrics are ratios to the reference probe of the same
// run (reference.go); the run record keeps them in ms and µs, next to
// the reference's own figures. Throughput and the p90 latencies go to
// the run record only: on a shared 2-vCPU host they follow host steal
// (see NOTES.md).
var endToEnd = []metricDef{
	{"main_op_p50_rel", "ratio"},
	{"read_p50_rel", "ratio"},
	{"server_cpu_rel", "ratio"},
	{"colors", "count"},
	{"setup_s", "s"},
	{"server_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// pass through reads 0 on it; the run record gives every sample count.
func perLayer() []metricDef {
	defs := []metricDef{
		{"colord.read_rtt_us", "us"},
		{"colord.write_rtt_us", "us"},
		{"colord.read_transport_us", "us"},
		{"colord.write_transport_us", "us"},
		{"service.read_handler_us", "us"},
		{"service.write_handler_us", "us"},
		{"service.jobs_us", "us"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.entry_mutate_us", "us"},
		{"service.entry_read_us", "us"},
		{"service.entry_read_idle_us", "us"},
	}
	for _, a := range keyAlgos {
		defs = append(defs,
			metricDef{"harness.run_ms." + a, "ms"},
			metricDef{"harness.verify_ms." + a, "ms"},
			metricDef{"harness.rounds." + a, "count"},
			metricDef{"harness.order_iterations." + a, "count"},
			metricDef{"harness.edges_scanned." + a, "count"},
			metricDef{"harness.conflicts." + a, "count"},
			metricDef{"par.forks." + a, "count"},
			metricDef{"par.dispatches." + a, "count"},
			metricDef{"par.seq_cutoff_hits." + a, "count"},
		)
	}
	for _, pm := range phaseMetrics {
		defs = append(defs, metricDef{pm.metric + "." + pm.algo, "ms"})
	}
	return append(defs,
		metricDef{"verify.check_ms", "ms"},
		metricDef{"dynamic.apply_us", "us"},
		metricDef{"dynamic.conflict_edges", "count"},
		metricDef{"dynamic.dirty", "count"},
		metricDef{"dynamic.repaired", "count"},
		metricDef{"dynamic.rounds", "count"},
		metricDef{"dynamic.fallbacks", "count"},
		metricDef{"dynamic.repaired_per_dirty", "ratio"},
		metricDef{"service.build_spec_ms", "ms"},
		metricDef{"trace.overhead_us", "us"},
	)
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	colord   string
	out      string
	// self is this binary, which serves as the reference server; empty
	// for a run without reference probes.
	self string
	// setupReps is how many times a run sets up; setup_s is their
	// median and the last set-up is the one measured.
	setupReps int
}

func (c runConfig) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome is what one run of a workload measured and checked.
type outcome struct {
	loopStats
	// gate is held for reading around every measured operation; a
	// reference probe holds it for writing, so it runs with the load paused.
	gate             sync.RWMutex
	refLat, refCPU   []float64 // the reference probe's samples, see reference.go
	mainLat, readLat []float64 // ms per successful measured operation
	ops              int       // operations completed in the measured phase
	elapsed          float64   // s of the measured phase
	serverCPU        float64   // s of colord CPU in the measured phase
	genCPU           float64   // s of the benchmark's own CPU in the measured phase
	steal            float64   // host steal share in the measured phase
	rssMiB           float64
	colordProcs      int
	colordFlags      []string
	colors           int
	setup            []float64 // s per set-up
	checkMs          []float64 // per verify.CheckProper call
	buildSpecMs      []float64 // per service.BuildSpec call
	samples          map[string]int
	layers           map[string]float64 // traced runs
	tracer           *tracer
	mainRTT          float64 // traced runs: the main operation's colord round-trip median, µs
	selfSumGap       float64 // traced runs: see additivity
}

func newOutcome() *outcome {
	return &outcome{samples: map[string]int{}, layers: map[string]float64{}}
}

// loopStats counts one connection's operations and failures.
type loopStats struct {
	lat       []float64 // ms per successful operation
	attempted int64
	failed    int64
	firstErr  error
}

func (s *loopStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *loopStats) merge(t *loopStats) {
	s.attempted += t.attempted
	s.failed += t.failed
	if s.firstErr == nil {
		s.firstErr = t.firstErr
	}
}

// buildGraph builds the benchmark's own copy of the workload graph. A
// traced run builds it three times for service.build_spec_ms.
func buildGraph(o *outcome, spec string, traced bool) (*graph.Graph, error) {
	builds := 1
	if traced {
		builds = 3
	}
	var g *graph.Graph
	for i := 0; i < builds; i++ {
		start := time.Now()
		var err error
		if g, err = service.BuildSpec(spec); err != nil {
			return nil, err
		}
		o.buildSpecMs = append(o.buildSpecMs, msSince(start))
	}
	return g, nil
}

// measure runs one loop per connection until the deadline, and reads
// colord's CPU time, the benchmark's own CPU time and the host's steal
// time around them. With cfg.self set, it starts the reference server
// and probes it throughout.
func (o *outcome) measure(cfg runConfig, d *daemon, loops ...func(deadline time.Time)) error {
	var ref *reference
	if cfg.self != "" {
		var err error
		if ref, err = startReference(cfg.self); err != nil {
			return err
		}
		defer ref.stop()
	}
	cpu0, err := procCPUSeconds(d.pid())
	if err != nil {
		return err
	}
	self0, host0 := selfCPUSeconds(), readHostCPU()
	start := time.Now()
	deadline := start.Add(cfg.duration())
	var wg sync.WaitGroup
	for _, loop := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(deadline)
		}()
	}
	var refErr error
	if ref != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refErr = ref.run(&o.gate, deadline)
		}()
	}
	wg.Wait()
	if refErr != nil {
		return refErr
	}
	if ref != nil {
		o.refLat, o.refCPU = ref.lat, ref.cpu
	}
	o.elapsed = time.Since(start).Seconds()
	cpu1, err := procCPUSeconds(d.pid())
	if err != nil {
		return err
	}
	o.serverCPU = cpu1 - cpu0
	o.genCPU = selfCPUSeconds() - self0
	o.steal = stealShare(host0, readHostCPU())
	return nil
}

// serverState reads colord's peak RSS and GOMAXPROCS after the run.
func (o *outcome) serverState(d *daemon, c *conn) error {
	var err error
	if o.rssMiB, err = procPeakRSSMiB(d.pid()); err != nil {
		return err
	}
	o.colordProcs, err = d.goMaxProcs(c)
	return err
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runWorkload(cfg runConfig, traced bool) (*outcome, error) {
	if w, ok := readWorkloads[cfg.workload]; ok {
		return runRead(cfg, w, traced)
	}
	if cfg.workload == "mutate_rw" {
		return runMutate(cfg, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want warm_read, cold_color or mutate_rw)", cfg.workload)
}

// run executes one benchmark run and writes the run record and the
// result line to stdout. A traced run first measures an untraced third of
// the time, so that the tracing overhead is the difference between the
// two round-trip medians.
func run(cfg runConfig, traced bool, stdout io.Writer) (*result, error) {
	if cfg.colord == "" {
		return nil, errors.New("-colord is required")
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	res := &result{Metrics: map[string]metricValue{}}
	var o *outcome
	var err error
	rec := record(cfg, traced)
	if !traced {
		cfg.setupReps = 5
		if o, err = runWorkload(cfg, false); err != nil {
			return nil, err
		}
		ops := float64(o.ops)
		mainP50, readP50 := quantile(o.mainLat, 0.5), quantile(o.readLat, 0.5)
		cpuPerOp := o.serverCPU / ops * 1e6
		refP50, refCPU := quantile(o.refLat, 0.5), median(o.refCPU)
		rec["setup_s_each"] = append([]float64(nil), o.setup...)
		rec["throughput_rps"] = ops / o.elapsed
		rec["main_op_p50_ms"] = mainP50
		rec["read_p50_ms"] = readP50
		rec["main_op_p90_ms"] = quantile(o.mainLat, 0.9)
		rec["read_p90_ms"] = quantile(o.readLat, 0.9)
		rec["server_cpu_us_per_op"] = cpuPerOp
		rec["reference_p50_ms"] = refP50
		rec["reference_cpu_us_per_req"] = refCPU
		v := map[string]float64{
			"main_op_p50_rel": mainP50 / refP50,
			"read_p50_rel":    readP50 / refP50,
			"server_cpu_rel":  cpuPerOp / refCPU,
			"colors":          float64(o.colors),
			"setup_s":         median(o.setup),
			"server_rss_mb":   o.rssMiB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{v[m.name], m.unit}
		}
		o.samples["main_op"] = len(o.mainLat)
		o.samples["read"] = len(o.readLat)
		o.samples["reference_requests"] = len(o.refLat)
		o.samples["reference_probes"] = len(o.refCPU)
	} else {
		// Tracing is compared with the untraced round trip in µs, so
		// neither part probes the reference.
		cfg.self = ""
		base := cfg
		base.seconds, base.setupReps = cfg.seconds/3, 1
		b, err := runWorkload(base, false)
		if err != nil {
			return nil, err
		}
		if b.failed > 0 {
			o = b
		} else {
			cfg.seconds, cfg.setupReps = cfg.seconds-base.seconds, 1
			if o, err = runWorkload(cfg, true); err != nil {
				return nil, err
			}
			o.merge(&b.loopStats)
			o.layers["trace.overhead_us"] = o.mainRTT - quantile(b.mainLat, 0.5)*1e3
			o.layers["verify.check_ms"] = median(o.checkMs)
			o.layers["service.build_spec_ms"] = median(o.buildSpecMs)
			rec["untraced_main_op_p50_us"] = quantile(b.mainLat, 0.5) * 1e3
			rec["self_sum_gap"] = o.selfSumGap
			rec["self_sum_tolerance"] = selfSumTolerance
			rec["self_sum_within_tolerance"] = math.Abs(o.selfSumGap) <= selfSumTolerance
			if o.tracer != nil && cfg.out != "" {
				path := spansPath(cfg)
				if err := o.tracer.write(path); err != nil {
					return nil, fmt.Errorf("writing spans: %w", err)
				}
				rec["spans_file"] = path
			}
		}
		for _, m := range perLayer() {
			res.Metrics[m.name] = metricValue{o.layers[m.name], m.unit}
		}
		o.samples["verify_checks"] = len(o.checkMs)
		o.samples["build_spec"] = len(o.buildSpecMs)
	}
	res.Attempted, res.Failed = max(o.attempted, 1), o.failed
	res.Correct = o.failed == 0
	if o.firstErr != nil {
		rec["first_failure"] = o.firstErr.Error()
	}
	ops := max(float64(o.ops), 1)
	rec["failed_frac"] = float64(o.failed) / float64(res.Attempted)
	rec["colors"] = o.colors
	rec["samples"] = o.samples
	rec["gomaxprocs_colord"] = o.colordProcs
	rec["colord_flags"] = o.colordFlags
	rec["generator_cpu_us_per_op"] = o.genCPU / ops * 1e6
	rec["host_steal_share"] = o.steal
	recLine, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "run record: %s\n%s\n", recLine, resLine)
	return res, nil
}

// record starts the run record with what identifies the code and the box.
// Steal share and generator CPU are diagnostics only: no run is dropped,
// reweighted or rescaled by them.
func record(cfg runConfig, traced bool) map[string]any {
	return map[string]any{
		"workload":             cfg.workload,
		"seed":                 cfg.seed,
		"seconds":              cfg.seconds,
		"traced":               traced,
		"commit":               commit(),
		"cpu_model":            cpuModel(),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"go_version":           runtime.Version(),
		"connections":          2,
	}
}

// commit is the git commit of the checkout run.sh built this command in
// (the parent of .bench_build), or "unknown" when it is not a git work tree.
func commit() string {
	root := filepath.Dir(filepath.Dir(os.Args[0]))
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "warm_read, cold_color or mutate_rw")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: key order and mutation batches")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: print per-layer metrics from the layer ladder instead of end-to-end metrics")
	flag.StringVar(&cfg.colord, "colord", "", "colord binary")
	flag.StringVar(&cfg.out, "out", "", "directory for the traced run's spans file")
	refAddr := flag.String("reference", "", "serve as the reference server on this address (see reference.go)")
	flag.Parse()
	if *refAddr != "" {
		if err := serveReference(*refAddr); err != nil {
			fmt.Fprintln(os.Stderr, "colordbench: reference server:", err)
			os.Exit(1)
		}
		return
	}
	cfg.self = os.Args[0]
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// A run must end within 180 s; colord and the reference server die
	// with this process (Pdeathsig) if the watchdog fires.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "colordbench: run did not finish in time")
		os.Exit(1)
	})
	res, err := run(cfg, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "colordbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
