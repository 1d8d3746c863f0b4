// Command colorbench regenerates the paper's tables and figures
// (experiments E1–E9 of EXPERIMENTS.md) and prints the same rows/series the
// paper reports.
//
// Usage:
//
//	colorbench -experiment fig1 [-scale 1] [-procs 2] [-eps 0.01]
//	           [-trials 3] [-seed 42]
//	colorbench -experiment all    # run everything
//	colorbench -list              # list experiments
//	colorbench -matrix out.json   # family × algorithm × worker-count sweep
//	           [-algos JP-ADG,SPEC-ADG] [-plist 1,2,4]
//
// -matrix writes one harness.Record per cell as a JSON list; each cell
// keeps the median-time run of -trials.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment to run (see -list), or 'all'")
		list       = flag.Bool("list", false, "list available experiments")
		scale      = flag.Int("scale", 1, "suite size multiplier")
		procs      = flag.Int("procs", 2, "worker count")
		eps        = flag.Float64("eps", 0.01, "ADG epsilon")
		trials     = flag.Int("trials", 3, "timed repetitions per point; the median-time one is reported")
		seed       = flag.Uint64("seed", 42, "random seed")
		matrixOut  = flag.String("matrix", "", "write the family × algorithm × worker-count sweep over the dataset suite to this file, one record per cell")
		algosFlag  = flag.String("algos", "", "comma-separated algorithm names for -matrix (default: whole registry)")
		plistFlag  = flag.String("plist", "", "comma-separated worker counts for -matrix (default: 1,2,4; -procs is ignored by the matrix)")
	)
	flag.Parse()

	exps := harness.Experiments()
	names := make([]string, 0, len(exps))
	for name := range exps {
		names = append(names, name)
	}
	sort.Strings(names)

	if *list {
		fmt.Println("available experiments:")
		for _, n := range names {
			fmt.Println(" ", n)
		}
		return
	}

	opts := harness.Options{
		Scale:   *scale,
		Procs:   *procs,
		Epsilon: *eps,
		Trials:  *trials,
		Seed:    *seed,
	}
	if *matrixOut != "" {
		var algos []string
		if *algosFlag != "" {
			algos = strings.Split(*algosFlag, ",")
		}
		var plist []int
		if *plistFlag != "" {
			for _, s := range strings.Split(*plistFlag, ",") {
				p, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || p < 1 {
					fmt.Fprintf(os.Stderr, "colorbench: -plist: %q is not a positive integer\n", s)
					os.Exit(2)
				}
				plist = append(plist, p)
			}
		}
		records, err := harness.MatrixReport(opts, algos, plist)
		if err != nil {
			fmt.Fprintf(os.Stderr, "colorbench: matrix report: %v\n", err)
			os.Exit(1)
		}
		data, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "colorbench: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*matrixOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "colorbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d matrix records to %s\n", len(records), *matrixOut)
		if *experiment == "" {
			return
		}
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "colorbench: -experiment required (or -list or -matrix)")
		os.Exit(2)
	}
	run := func(name string) {
		fn, ok := exps[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "colorbench: unknown experiment %q (try -list)\n", name)
			os.Exit(2)
		}
		out, err := fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "colorbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s ===\n%s\n", name, out)
	}
	if *experiment == "all" {
		for _, n := range names {
			run(n)
		}
		return
	}
	run(*experiment)
}
