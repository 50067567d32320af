package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two result sets (directories of run records, as
// written to .bench_build/results) metric by metric and workload by
// workload, and flags only changes beyond the metric's bound in
// BENCHMARK.json (read from the working directory, the repository root).
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare <old results dir> <new results dir>")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	old, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	cur, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	var unbounded []string
	for name := range unboundedUnits {
		unbounded = append(unbounded, name)
	}
	sort.Strings(unbounded)
	var rows []compareRow
	for _, wl := range workloadNames() {
		for _, m := range spec.EndToEnd {
			a, b := values(old, wl, m.Name), values(cur, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			rows = append(rows, compareMetric(wl, m.Name, m.Better == "higher", m.Bound, a, b))
		}
		for _, name := range unbounded {
			a, b := values(old, wl, name), values(cur, wl, name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			r := compareMetric(wl, name, name == "max_rps", math.Inf(1), a, b)
			r.verdict = verdictNoBound
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return errors.New("no workload and metric present in both result sets")
	}
	fmt.Fprintf(out, "%-8s %-14s %5s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "bound", "old median", "new median", "change", "old IQR", "new IQR", "verdict")
	worse := 0
	for _, r := range rows {
		fmt.Fprintf(out, "%-8s %-14s %5.2f %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s\n",
			r.workload, r.metric, r.bound, r.oldMed, r.newMed, 100*r.change, 100*r.oldSpread, 100*r.newSpread, r.verdict)
		if r.verdict == verdictWorse {
			worse++
		}
	}
	fmt.Fprintf(out, "%d of %d rows worse beyond their bound\n", worse, len(rows))
	return nil
}

const (
	verdictWorse      = "WORSE"
	verdictBetter     = "better"
	verdictSame       = "within bound"
	verdictUnresolved = "unresolved: run-to-run spread exceeds bound"
	verdictNoBound    = "no bound (for information)"
)

type compareRow struct {
	workload, metric             string
	bound, oldMed, newMed        float64
	change, oldSpread, newSpread float64 // change > 0 is worse
	verdict                      string
}

// compareMetric judges one workload and metric. change is the relative
// move of the median, signed so that positive is worse. Where either
// side's interquartile spread is wider than the bound the row is
// unresolved, unless every new run beats every old one.
func compareMetric(workload, metric string, higherBetter bool, bound float64, old, cur []float64) compareRow {
	r := compareRow{workload: workload, metric: metric, bound: bound,
		oldMed: median(old), newMed: median(cur), oldSpread: spread(old), newSpread: spread(cur)}
	if r.oldMed != 0 {
		r.change = (r.newMed - r.oldMed) / math.Abs(r.oldMed)
	}
	if higherBetter {
		r.change = -r.change
	}
	allBetter := true
	for _, a := range old {
		for _, b := range cur {
			if (higherBetter && b <= a) || (!higherBetter && b >= a) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && r.change < -bound:
		r.verdict = verdictBetter
	case r.oldSpread > bound || r.newSpread > bound:
		r.verdict = verdictUnresolved
	case r.change > bound:
		r.verdict = verdictWorse
	case r.change < -bound:
		r.verdict = verdictBetter
	default:
		r.verdict = verdictSame
	}
	return r
}

// loadRecords reads every end-to-end run record in dir.
func loadRecords(dir string) ([]Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []Record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result records in %s", dir)
	}
	return out, nil
}

// values collects one metric of one workload across records.
func values(recs []Record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Unbounded[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
