package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, the values
// of two -out files, the relative change from the first to the second
// and the bound, and returns 1 if any change is worse than its bound
// (or the second run failed a larger share of its operations), 2 if a
// file cannot be read, else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, errA := loadResults(pathA)
	b, errB := loadResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !compareResults(w, a, b) {
		return 1
	}
	return 0
}

func loadResults(path string) (map[string]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res map[string]*result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareResults reports whether b is within every bound of a.
func compareResults(w io.Writer, a, b map[string]*result) bool {
	ok := true
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "change", "bound")
	for _, def := range workloads {
		ra, rb := a[def.name], b[def.name]
		if ra == nil || rb == nil {
			if ra != rb {
				fmt.Fprintf(w, "%-14s only in one file\n", def.name)
				ok = false
			}
			continue
		}
		for _, m := range endToEndMetrics {
			va, vb := ra.Metrics[m.name].Value, rb.Metrics[m.name].Value
			if va == 0 {
				fmt.Fprintf(w, "%-14s %-24s missing from the first file\n", def.name, m.name)
				ok = false
				continue
			}
			change := (vb - va) / va
			worse := change
			if m.better == "higher" {
				worse = -change
			}
			verdict := ""
			if worse > m.bound {
				verdict = "  REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-24s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				def.name, m.name, va, vb, 100*change, 100*m.bound, verdict)
		}
		// failed_share has no tolerance: any rise is a regression.
		sa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		sb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		verdict := ""
		if sb > sa || (ra.Correct && !rb.Correct) {
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-14s %-24s %14.6f %14.6f %9s %7s%s\n", def.name, "failed_share", sa, sb, "", "any", verdict)
	}
	return ok
}
