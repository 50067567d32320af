// Command perfbench is Oak's end-to-end benchmark. It starts the
// repository's own oakd (and, for the cluster workload, oakgw) as child
// processes on loopback, drives them open-loop from this one process with a
// seeded op stream, checks every response against an in-process reference
// engine, and prints every metric by name with its unit. With --trace 1 it
// instead replays the same stream in-process through a ladder of the
// layers' public entry points and prints per-layer costs. See README.md for
// the workloads, the metrics and how to compare two result sets.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	sh perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//	sh perfbench/run.sh compare <old results dir> <new results dir>
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Fixed parameters of every run.
const (
	sloMs        = 20.0  // p99 latency limit behind max_rps
	maxFailShare = 0.001 // failed-op share allowed at max_rps
	setupRepeats = 5     // setups per end-to-end run; setup_s is their median
	searchSteps  = 4     // offered-rate steps of the max_rps search
	maxConns     = 2     // generator connections (and sending goroutines), at most nproc
	fixedShare   = 0.6   // share of --seconds spent at the fixed rate; the rest searches max_rps
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is what a run stores under .bench_build/results for compare mode.
type Record struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   int      `json:"seconds"`
	Host      Host     `json:"host"`
	Succeeded int      `json:"succeeded"`
	Notes     []string `json:"notes,omitempty"` // failures and caveats
	Info      []string `json:"info,omitempty"`  // tail sample counts
	// Unbounded holds end-to-end figures reported without a bound.
	Unbounded map[string]Metric `json:"unbounded,omitempty"`
	Result
}

// Host names what a result was measured on.
type Host struct {
	Commit    string `json:"commit"`
	SourceSHA string `json:"source_sha256"`
	Go        string `json:"go"`
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
}

func main() {
	// The generator's own collections would show as lateness; trade memory
	// for fewer of them.
	debug.SetGCPercent(400)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: ingest, serve, cold or cluster")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Int("seconds", 20, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 replays the stream through the traced layer ladder and prints per-layer metrics")
		bin     = fs.String("bin", ".bench_build/bin", "directory holding the oakd and oakgw binaries")
		work    = fs.String("work", ".bench_build", "directory for scratch files, results and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		if err := compareMain(fs.Args()[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 1
		}
		return 0
	}
	w, ok := Workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	rec, err := bench(w, *seed, *seconds, *trace == 1, *bin, *work, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := saveRecord(*work, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range rec.Info {
		fmt.Fprintln(stdout, n)
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(stdout, "note:", n)
	}
	fmt.Fprintf(stdout, "%s: attempted %d, succeeded %d, failed %d, correct %v\n",
		w.Name, rec.Attempted, rec.Succeeded, rec.Failed, rec.Correct)
	for _, set := range []struct {
		title string
		m     map[string]Metric
	}{{"bounded", rec.Metrics}, {"unbounded", rec.Unbounded}} {
		if len(set.m) == 0 {
			continue
		}
		fmt.Fprintf(stdout, " %s:\n", set.title)
		keys := make([]string, 0, len(set.m))
		for k := range set.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %-36s %14.4f %s\n", k, set.m[k].Value, set.m[k].Unit)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range Workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bench performs one run of workload w.
func bench(w Workload, seed int64, seconds int, trace bool, bin, work string, log io.Writer) (*Record, error) {
	for _, b := range []string{"oakd", "oakgw"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return nil, fmt.Errorf("binary missing (build with perfbench/run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(filepath.Join(work, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	rec := &Record{Workload: w.Name, Seed: seed, Trace: trace, Seconds: seconds, Host: hostInfo()}
	rec.Metrics, rec.Unbounded = map[string]Metric{}, map[string]Metric{}
	fmt.Fprintf(log, "perfbench %s seed %d: commit %s, source %s, %s, nproc %d, %s\n",
		w.Name, seed, rec.Host.Commit, rec.Host.SourceSHA[:12], rec.Host.Go, rec.Host.NProc, rec.Host.CPU)

	f := NewFixture(w, seed)
	root, ruleFile, err := f.WriteInputs(scratch)
	if err != nil {
		return nil, fmt.Errorf("write inputs: %w", err)
	}
	ref, err := NewReference(f)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	setup := f.SetupReports()
	for _, r := range setup {
		if err := ref.Ingest(r); err != nil {
			return nil, fmt.Errorf("reference setup: %w", err)
		}
	}

	repeats := setupRepeats
	if trace {
		repeats = 1
	}
	var setupS []float64
	var sut *SUT
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		s, err := StartSUT(bin, scratch, w, root, ruleFile)
		if err == nil {
			err = Warm(s.Base, f, setup)
		}
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < repeats-1 {
			s.Stop()
		} else {
			sut = s
		}
	}
	defer sut.Stop()

	conns := min(maxConns, runtime.NumCPU())
	gen := NewGen(sut.Base, conns)
	defer gen.Close()

	// Fixed-rate phase.
	fixedSecs := float64(seconds) * fixedShare
	if trace {
		fixedSecs = math.Max(2, float64(seconds)/4)
	}
	ops := f.Next(int(w.Rate * fixedSecs))
	if err := ref.Advance(ops); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	cpu0, err := sut.CPU()
	if err != nil {
		return nil, err
	}
	samples := gen.Run(ops, w.Rate)
	cpu1, err := sut.CPU()
	if err != nil {
		return nil, err
	}
	// Peak memory is read before the capacity search, whose overload steps
	// vary from run to run in how far they push the heap.
	rss, err := sut.PeakRSS()
	if err != nil {
		return nil, err
	}
	fixed := summarize(ops, samples)
	rec.Attempted += len(ops)
	rec.Failed += fixed.failed

	if trace {
		lags := make([]time.Duration, len(samples))
		for i, s := range samples {
			lags[i] = s.Lag()
		}
		rec.put("loadgen.lag_p99_ms", quantile(millis(lags), 0.99))
		rec.put("loadgen.conns", float64(gen.Dials()))
	} else {
		maxRPS, att, failed, err := searchCapacity(f, ref, gen, w.Rate, fixed, float64(seconds)*(1-fixedShare)/searchSteps, log)
		if err != nil {
			return nil, err
		}
		if maxRPS == 0 {
			rec.Notes = append(rec.Notes, "max_rps is 0: no offered rate tried, the fixed rate included, held the SLO")
		}
		rec.Attempted += att
		rec.Failed += failed
		rec.put("max_rps", maxRPS)
		done := len(ops) - fixed.failed
		rec.put("cpu_us_per_op", float64(cpu1-cpu0)/1e3/float64(max(done, 1)))
		for _, k := range []struct {
			kind string
			xs   []float64
		}{{"page", fixed.page}, {"report", fixed.report}} {
			kind, xs := k.kind, k.xs
			q := tailQuantile(len(xs))
			if q < 0.95 {
				return nil, fmt.Errorf("%s latency: %d samples leave fewer than 10 beyond p95; lengthen the run", kind, len(xs))
			}
			rec.put(kind+"_p50_ms", quantile(xs, 0.5))
			rec.put(kind+"_p90_ms", quantile(xs, 0.9))
			rec.put(kind+"_p95_ms", quantile(xs, 0.95))
			if q >= 0.99 {
				rec.put(kind+"_p99_ms", quantile(xs, 0.99))
			}
			rec.Info = append(rec.Info, fmt.Sprintf("%s latency: %d samples; highest percentile with >=10 samples beyond it: p%g = %.3f ms",
				kind, len(xs), q*100, quantile(xs, q)))
		}
	}
	rec.Correct = rec.Failed == 0
	rec.Notes = append(rec.Notes, gen.Failures()...)
	if d := gen.Dials(); d > int64(gen.Conns()) {
		rec.Correct = false
		rec.Notes = append(rec.Notes, fmt.Sprintf("generator dialed %d connections for %d in use", d, gen.Conns()))
	}
	got, err := sut.Counters()
	if err != nil {
		return nil, err
	}
	wantAct, wantViol := ref.Counters()
	if got.RuleActivations != wantAct || got.ViolationsDetected != wantViol {
		rec.Correct = false
		rec.Notes = append(rec.Notes, fmt.Sprintf("program counted %d activations and %d violations, reference %d and %d",
			got.RuleActivations, got.ViolationsDetected, wantAct, wantViol))
	}
	if got.BreakerTrips != 0 {
		rec.Correct = false
		rec.Notes = append(rec.Notes, fmt.Sprintf("%d guard breaker trips: expected pages would depend on cross-user order", got.BreakerTrips))
	}
	sut.Stop()

	if !trace {
		rec.put("rss_peak_mb", float64(rss)/(1<<20))
		rec.put("setup_s", median(setupS))
	} else {
		l := &ladder{f: f, setup: setup, root: root, scratch: scratch}
		if err := os.MkdirAll(filepath.Join(work, "spans"), 0o755); err != nil {
			return nil, err
		}
		spanPath := filepath.Join(work, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
		m, checked, failed, err := l.Trace(ops, spanPath)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		rec.Attempted += checked
		rec.Failed += failed
		if failed > 0 {
			rec.Correct = false
			rec.Notes = append(rec.Notes, fmt.Sprintf("%d ops served differently from the reference in the in-process ladder", failed))
		}
		for k, v := range m {
			rec.put(k, v)
		}
		rec.Notes = append(rec.Notes, l.notes...)
		rec.Notes = append(rec.Notes, "spans written to "+spanPath)
	}
	rec.Succeeded = rec.Attempted - rec.Failed
	return rec, nil
}

// put records a metric: bounded ones go to the result line, unbounded
// end-to-end figures only to the record and the printed summary.
func (r *Record) put(name string, v float64) {
	if unit, ok := unboundedUnits[name]; ok {
		r.Unbounded[name] = Metric{Value: v, Unit: unit}
		return
	}
	unit, ok := endToEndUnits[name]
	if !ok {
		unit = perLayerUnits[name]
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// phase is a sampled stretch of ops split by kind, latencies in ms sorted.
type phase struct {
	page, report, all []float64
	failed            int
	tailLagMs         float64 // median lateness of the last tenth of ops
}

// summarize splits samples by op kind. A failed op counts as missing any
// latency limit.
func summarize(ops []*Op, samples []Sample) phase {
	var p phase
	var lags []time.Duration
	for i, s := range samples {
		ms := float64(s.Latency()) / float64(time.Millisecond)
		if s.Failed {
			p.failed++
			ms = math.Inf(1)
		}
		if ops[i].Page {
			p.page = append(p.page, ms)
		} else {
			p.report = append(p.report, ms)
		}
		p.all = append(p.all, ms)
		if i >= len(samples)*9/10 {
			lags = append(lags, s.Lag())
		}
	}
	sort.Float64s(p.page)
	sort.Float64s(p.report)
	sort.Float64s(p.all)
	p.tailLagMs = quantile(millis(lags), 0.5)
	return p
}

// meets reports whether a phase holds the SLO: p99 over all ops within
// sloMs, failures within maxFailShare, and no growing backlog (the last
// tenth of ops went out on time, within the SLO).
func (p phase) meets() bool {
	return quantile(p.all, 0.99) <= sloMs &&
		float64(p.failed) <= maxFailShare*float64(len(p.all)) &&
		p.tailLagMs <= sloMs
}

// searchCapacity finds max_rps, the offered rate at which the SLO stops
// holding. Steps climb by √2 from eight times the fixed rate (or descend, if
// a step misses before any has held) until a step that held and a higher
// one that missed bracket the limit; the remaining steps bisect the bracket
// geometrically. The result interpolates, in log rate against log p99,
// between the highest step that held and the lowest above it that missed,
// for where p99 reaches the SLO; without a bracket it is the highest step
// that held. A miss without a growing backlog (a stall of the machine, not
// of capacity) does not end the climb unless the next step misses too.
// The fixed-rate phase counts as a step. Every step continues the same
// checked op stream. When no step held the SLO, max_rps is 0.
func searchCapacity(f *Fixture, ref *Reference, gen *Gen, rate float64, fixed phase, stepSecs float64, log io.Writer) (float64, int, int, error) {
	type point struct{ rate, p99 float64 }
	var best, ceiling *point
	if fixed.meets() {
		best = &point{rate, quantile(fixed.all, 0.99)}
	}
	next, climbing, misses := rate*8, true, 0
	attempted, failed := 0, 0
	for step := 0; step < searchSteps; step++ {
		r := next
		ops := f.Next(max(1, int(r*stepSecs)))
		if err := ref.Advance(ops); err != nil {
			return 0, 0, 0, err
		}
		p := summarize(ops, gen.Run(ops, r))
		attempted += len(ops)
		failed += p.failed
		ok, p99 := p.meets(), quantile(p.all, 0.99)
		fmt.Fprintf(log, "max_rps step %d: %.0f ops/s, p99 %.2f ms, failed %d, tail lag %.2f ms, meets SLO %v\n",
			step, r, p99, p.failed, p.tailLagMs, ok)
		pt := &point{r, p99}
		if ok {
			misses = 0
			if best == nil || r > best.rate {
				best = pt
				if ceiling != nil && ceiling.rate <= r {
					ceiling = nil
				}
			}
		} else {
			misses++
			if p.tailLagMs > sloMs || misses == 2 {
				climbing = false
			}
			if best == nil || r > best.rate {
				if ceiling == nil || r < ceiling.rate {
					ceiling = pt
				}
			}
		}
		switch {
		case best == nil:
			next = r / math.Sqrt2
		case climbing && ceiling == nil:
			next = r * math.Sqrt2
		case ceiling == nil:
			next = best.rate * math.Sqrt2
		default:
			next = math.Sqrt(best.rate * ceiling.rate)
		}
	}
	if best == nil {
		return 0, attempted, failed, nil
	}
	if ceiling == nil || ceiling.p99 <= best.p99 || ceiling.p99 <= sloMs {
		return best.rate, attempted, failed, nil
	}
	frac := (math.Log(sloMs) - math.Log(math.Max(best.p99, 1e-3))) / (math.Log(ceiling.p99) - math.Log(math.Max(best.p99, 1e-3)))
	frac = math.Max(0, math.Min(1, frac))
	return best.rate * math.Pow(ceiling.rate/best.rate, frac), attempted, failed, nil
}

// hostInfo names the commit, toolchain and machine.
func hostInfo() Host {
	h := Host{Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), CPU: "unknown", SourceSHA: sourceDigest()}
	// Only a checkout that is itself a git repository names its commit;
	// git would otherwise report whatever repository encloses it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return h
}

func saveRecord(work string, rec *Record) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// sourceDigest hashes the module's Go sources and go.mod, so a result
// names the code it measured even in a checkout that is not a git
// repository.
func sourceDigest() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || p == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
