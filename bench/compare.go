package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// readSet loads a saved set from a file, or from set.json in a directory.
func readSet(path string) (*set, error) {
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		path = filepath.Join(path, "set.json")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, for every workload and end-to-end metric, both
// medians, the relative change, the bound and a verdict, and reports
// whether B is worse than A anywhere: an out-of-bound worsening, or more
// failed operations. A metric whose run-to-run spread (distance between
// the quartiles over the median, on either side) is wider than its bound
// cannot be judged and is marked unresolved rather than unchanged.
func compareSets(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-24s %12s %12s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, s := range specs {
		wa, wb := a.Workloads[s.name], b.Workloads[s.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-13s missing from one set\n", s.name)
			worse = true
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa[d.Name], wb[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-24s missing from one set\n", s.name, d.Name)
				worse = true
				continue
			}
			ma, mb := median(va), median(vb)
			change := worsening(ma, mb, d.Better)
			verdict := "ok"
			spreadA, okA := quartileSpread(va)
			spreadB, okB := quartileSpread(vb)
			switch {
			case (okA && spreadA > d.Bound) || (okB && spreadB > d.Bound):
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*spreadA, 100*spreadB)
			case change > d.Bound:
				verdict = "WORSE"
				worse = true
			case change < -d.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-13s %-24s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				s.name, d.Name, ma, mb, 100*signed(change, d.Better), 100*d.Bound, verdict)
		}
		ra := float64(a.Failed[s.name]) / float64(max(a.Attempted[s.name], 1))
		rb := float64(b.Failed[s.name]) / float64(max(b.Attempted[s.name], 1))
		verdict := "ok"
		if rb > ra {
			verdict = "WORSE"
			worse = true
		}
		fmt.Fprintf(w, "%-13s %-24s %12.6g %12.6g %8s %6s  %s\n", s.name, "error_rate", ra, rb, "", "0", verdict)
	}
	return worse, nil
}

// signed turns a worsening back into the plain relative change of the
// value (B over A minus one), which is what the table shows.
func signed(worsening float64, better string) float64 {
	if better == "higher" {
		return -worsening
	}
	return worsening
}
