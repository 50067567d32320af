package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// streamBytes serialises the first n ops of a fixture's stream.
func streamBytes(w Workload, seed int64, n int) []byte {
	var buf bytes.Buffer
	f := NewFixture(w, seed)
	for _, r := range f.SetupReports() {
		buf.Write(r.AppendBinary(nil))
	}
	for _, op := range f.Next(n) {
		fmt.Fprintf(&buf, "%d %v %v %s %x\n", op.User, op.Page, op.Binary, op.Path, op.Body)
	}
	return buf.Bytes()
}

func TestSameSeedGivesIdenticalOpStream(t *testing.T) {
	w := Workloads["serve"]
	a, b := streamBytes(w, 7, 2000), streamBytes(w, 7, 2000)
	if !bytes.Equal(a, b) {
		t.Fatal("two fixtures from seed 7 generated different op streams")
	}
	if bytes.Equal(a, streamBytes(w, 8, 2000)) {
		t.Fatal("seeds 7 and 8 generated the same op stream")
	}
}

func TestStreamReachesActivationPath(t *testing.T) {
	f := NewFixture(Workloads["serve"], 3)
	ref, err := NewReference(f)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, r := range f.SetupReports() {
		if err := ref.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	ops := f.Next(3000)
	if err := ref.Advance(ops); err != nil {
		t.Fatal(err)
	}
	act, viol := ref.Counters()
	if act == 0 || viol == 0 {
		t.Fatalf("reference saw %d activations and %d violations; the workload must reach the activation path", act, viol)
	}
	modified := 0
	for _, op := range ops {
		if op.Page && op.Want != f.PageHash[op.Path] {
			modified++
		}
	}
	if modified == 0 {
		t.Fatal("no page op expects a rewritten page")
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95},
		{200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.5}, {0, 0.5},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimesSubtractTheRungBelow(t *testing.T) {
	got := selfTimes([]float64{2, 5, 9, 9.5})
	want := []float64{2, 3, 4, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// A stall in one op makes every later op late, and the latency of each is
// measured from when it was due, not from when it was finally sent.
func TestLatenessCountsAStallAgainstEveryLaterRequest(t *testing.T) {
	const n, stall = 20, 30 * time.Millisecond
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]Sample, n)
	due := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	runSchedule(time.Now(), idx, due, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	}, out)
	for i := 1; i < n; i++ {
		wait := stall - due(i)
		if out[i].Lag() < wait || out[i].Latency() < wait {
			t.Errorf("op %d: lag %v, latency %v; a %v stall at op 0 must cost it at least %v",
				i, out[i].Lag(), out[i].Latency(), stall, wait)
		}
	}
}

// A generator that closes response bodies without reading them loses its
// kept-alive connection after each request; the dial counter shows it.
func TestDialCounterCatchesUndrainedBodies(t *testing.T) {
	body := strings.Repeat("x", 256<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	defer srv.Close()
	const requests = 10
	run := func(drain bool) int64 {
		var dc DialCounter
		c := newClient(&dc)
		defer c.CloseIdleConnections()
		for i := 0; i < requests; i++ {
			resp, err := c.Get(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			if drain {
				_, _ = io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
		}
		return dc.Dials()
	}
	if d := run(true); d != 1 {
		t.Fatalf("draining generator dialed %d connections, want 1", d)
	}
	if d := run(false); d <= 1 {
		t.Fatalf("non-draining generator dialed %d connections; the counter must catch the re-dials", d)
	}
}

func TestCompareFlagsOnlyChangesBeyondBound(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		name         string
		higherBetter bool
		old, cur     []float64
		want         string
	}{
		{"same", false, steady, []float64{10.2, 10.1, 10.3, 10.2, 10.1}, verdictSame},
		{"slower", false, steady, []float64{12, 12.1, 11.9, 12.05, 11.95}, verdictWorse},
		{"faster", false, steady, []float64{8, 8.1, 7.9, 8.05, 7.95}, verdictBetter},
		{"less throughput", true, steady, []float64{8, 8.1, 7.9, 8.05, 7.95}, verdictWorse},
		{"noisy", false, steady, []float64{5, 20, 12, 8, 15}, verdictUnresolved},
	} {
		if got := compareMetric("serve", "m", c.higherBetter, 0.1, c.old, c.cur).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// run.sh passes its build flags before the caller's arguments; compare
// mode must still be reached.
func TestCompareReachedAfterBuildFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-bin", t.TempDir(), "-work", t.TempDir(), "compare", "only-one-dir"}, &out, &errOut)
	if code != 1 || !strings.Contains(errOut.String(), "usage: compare") {
		t.Fatalf("exit %d, stderr %q; want compare's usage error", code, errOut.String())
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the benchmark
// emits.
func TestBenchmarkDefinitionMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if got, want := strings.Join(wl, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code has %s", got, want)
	}
	for _, m := range spec.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end_to_end %s: unit %q, code reports %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, code reports %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	for _, m := range spec.PerLayer {
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per_layer %s: unit %q, code reports %q", m.Name, m.Unit, perLayerUnits[m.Name])
		}
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, code reports %d", len(spec.PerLayer), len(perLayerUnits))
	}
}
