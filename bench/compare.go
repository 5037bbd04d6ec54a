package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// side is one side of a comparison: the end-to-end values of every
// (workload, metric) pair over the side's runs.
type side map[string]map[string][]float64

// loadSide reads a comma-separated list of -out reports; every report
// contributes one value per (workload, end-to-end metric).
func loadSide(list string) (side, error) {
	s := side{}
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, res := range rep.Results {
			if res.Traced {
				continue
			}
			if s[res.Workload] == nil {
				s[res.Workload] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				s[res.Workload][name] = append(s[res.Workload][name], v.Value)
			}
		}
	}
	return s, nil
}

// spread is the distance between the quartiles as a share of the
// median; unknown (0) below four runs.
func spread(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := sorted(xs)
	return (quantile(s, 0.75) - quantile(s, 0.25)) / quantile(s, 0.5)
}

// verdict applies the rule of the choosing-metrics guide to one pair:
// regressed when b's median is worse than a's by more than the bound;
// unresolved when either side's spread is wider than the bound, unless
// every run of b reads no worse than every run of a.
func verdict(d metricDef, a, b []float64) (ratio float64, status string) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	sa, sb := sorted(a), sorted(b)
	clear := sb[len(sb)-1] <= sa[0]
	if d.Better == "higher" {
		clear = sb[0] >= sa[len(sa)-1]
	}
	switch {
	case worse > d.Bound:
		return ratio, "regressed"
	case !clear && max(spread(a), spread(b)) > d.Bound:
		return ratio, "unresolved"
	}
	return ratio, "ok"
}

// compareReports prints one row per (workload, end-to-end metric) of b
// against a and returns 1 when any pair regressed.
func compareReports(w io.Writer, listA, listB string) int {
	a, errA := loadSide(listA)
	b, errB := loadSide(listB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
		return 2
	}
	return compareSides(w, a, b)
}

func compareSides(w io.Writer, a, b side) int {
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %12s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "status")
	code := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, status := verdict(d, va, vb)
			if status == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %7.4f of a %6.2f  %s (n=%d/%d, spread %.3f/%.3f)\n",
				wl.name, d.Name, median(va), median(vb), ratio, d.Bound, status, len(va), len(vb), spread(va), spread(vb))
		}
	}
	return code
}
