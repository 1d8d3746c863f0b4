// Package stats provides the Dolan–Moré performance profiles [103] used
// for Fig. 5 and the fixed-width table formatting of the harness output.
// Timing follows one rule, kept by the harness: an experiment runs each
// point its trial count of times and reports the median-time run.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// ProfilePoint is one (τ, fraction) point of a performance profile.
type ProfilePoint struct {
	Tau      float64
	Fraction float64
}

// PerfProfile computes a Dolan–Moré performance profile [103]. results
// maps solver name -> per-instance metric (lower is better; length must be
// equal across solvers). The profile of solver s at τ is the fraction of
// instances on which s's metric is within a factor τ of the instance's
// best. Returned curves are evaluated at each solver's set of ratios.
func PerfProfile(results map[string][]float64) (map[string][]ProfilePoint, error) {
	var nInstances int
	for _, vals := range results {
		if nInstances == 0 {
			nInstances = len(vals)
		} else if len(vals) != nInstances {
			return nil, fmt.Errorf("stats: ragged results (%d vs %d instances)", len(vals), nInstances)
		}
	}
	if nInstances == 0 {
		return nil, fmt.Errorf("stats: no instances")
	}
	// Per-instance best.
	best := make([]float64, nInstances)
	for i := range best {
		best[i] = math.Inf(1)
		for _, vals := range results {
			if vals[i] < best[i] {
				best[i] = vals[i]
			}
		}
		if best[i] <= 0 {
			return nil, fmt.Errorf("stats: non-positive metric on instance %d", i)
		}
	}
	profiles := make(map[string][]ProfilePoint, len(results))
	for name, vals := range results {
		ratios := make([]float64, nInstances)
		for i, v := range vals {
			ratios[i] = v / best[i]
		}
		sort.Float64s(ratios)
		points := make([]ProfilePoint, 0, nInstances)
		for i, r := range ratios {
			points = append(points, ProfilePoint{Tau: r, Fraction: float64(i+1) / float64(nInstances)})
		}
		profiles[name] = points
	}
	return profiles, nil
}

// ProfileAt evaluates a profile curve at τ (step function semantics).
func ProfileAt(points []ProfilePoint, tau float64) float64 {
	frac := 0.0
	for _, pt := range points {
		if pt.Tau <= tau {
			frac = pt.Fraction
		} else {
			break
		}
	}
	return frac
}

// Table renders rows with a header as an aligned fixed-width text table —
// the harness's "same rows the paper reports" output format.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fms", float64(v.Microseconds())/1000)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly (3 significant decimals).
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Speedup returns base/v (e.g. time at 1 thread over time at p threads).
func Speedup(base, v float64) float64 {
	if v == 0 {
		return math.Inf(1)
	}
	return base / v
}
