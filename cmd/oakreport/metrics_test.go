package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
)

func TestRunLiveMetrics(t *testing.T) {
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := engine.HandleReport(sampleReport()); err != nil {
			t.Fatal(err)
		}
	}
	engine.ModifyPage("u1", "/index.html", "<html></html>")
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-metrics", ts.URL + "/"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"status ok", "1 users",
		"reports handled", "3",
		"report ingest", "page rewrite", "p99ms",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunLiveGuard(t *testing.T) {
	engine, err := core.NewEngine(nil, core.WithGuard(core.GuardConfig{TripThreshold: 2}))
	if err != nil {
		t.Fatal(err)
	}
	engine.QuarantineProvider("cdn.example.com")
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-guard", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"cdn.example.com", "open",
		"quarantined providers: cdn.example.com",
		"quarantined rules:     none",
		"canary activations", "rewrite panics", "breaker trips",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunLiveGuardDisabled(t *testing.T) {
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-guard", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "guard disabled") {
		t.Errorf("want 'guard disabled' notice, got:\n%s", out.String())
	}
}

func TestRunLiveMetricsUnreachable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-metrics", "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("unreachable server: want error")
	}
}

// rowOf renders one counter row the way oakreport prints it, so tests can
// assert a decoded value arrived intact.
func rowOf(name string, v uint64) string {
	return fmt.Sprintf("  %-22s %d\n", name, v)
}

func TestRunLiveMemory(t *testing.T) {
	engine, err := core.NewEngine(nil, core.WithShards(1),
		core.WithProfileResidency(core.ResidencyConfig{Dir: t.TempDir(), MaxProfiles: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	for i := 0; i < 6; i++ {
		rep := sampleReport()
		rep.UserID = fmt.Sprintf("u%d", i)
		if _, err := engine.HandleReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	engine.ModifyPage("u0", "/index.html", "<html></html>") // rehydrates u0
	ss, _ := engine.SpillStatus()
	if ss.Spills == 0 || ss.Rehydrations == 0 || ss.ProfilesSpilled == 0 {
		t.Fatalf("fixture did not exercise the spill tier: %+v", ss)
	}
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-memory", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"mode: ok",
		"resident cap (per engine): 2 profiles",
		fmt.Sprintf("profiles: %d resident (%s est. heap), %d spilled (%s in %d segments)",
			ss.ProfilesResident, byteSize(ss.ResidentBytes), ss.ProfilesSpilled, byteSize(ss.SpillBytes), ss.Segments),
		rowOf("profile spills", ss.Spills),
		rowOf("rehydrations", ss.Rehydrations),
		rowOf("segment compactions", ss.SegmentCompactions),
		rowOf("spill errors", ss.SpillErrors),
		"spill read",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "spill read                 0 ") {
		t.Errorf("rehydration latency not decoded:\n%s", got)
	}
}

func TestRunLiveMemoryDisabled(t *testing.T) {
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-memory", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "spill tier disabled") {
		t.Errorf("want 'spill tier disabled' notice, got:\n%s", out.String())
	}
}

func TestRunLivePopulation(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	engine, err := core.NewEngine(nil,
		core.WithClock(func() time.Time { return now }),
		core.WithSynthesis(core.SynthesisConfig{Window: time.Minute, MinBaselineSamples: 1}))
	if err != nil {
		t.Fatal(err)
	}
	engine.MarkDegraded("slow.example")
	// The second report lands past the window, so the tick folds the first
	// into the baselines and the provider ranking.
	for i := 0; i < 2; i++ {
		if _, err := engine.HandleReport(sampleReport()); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-population", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"degraded provider", "slow.example", "manual",
		"provider baseline", "top providers by report appearances",
		"  population trips         1\n",
		"  population recoveries    0\n",
		"  synthesized activations  0\n",
		"slow.example                 manual       0.00          0.0          0.0 2026-01-01T00:00:00Z",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunLivePopulationDisabled(t *testing.T) {
	engine, err := core.NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin.NewServer(engine))
	defer ts.Close()

	var out bytes.Buffer
	if err := run([]string{"-population", ts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "population detection disabled") {
		t.Errorf("want 'population detection disabled' notice, got:\n%s", out.String())
	}
}

func TestRunLiveCluster(t *testing.T) {
	var addrs []string
	var engines []*core.Engine
	for i := 0; i < 2; i++ {
		engine, err := core.NewEngine(nil, core.WithGuard(core.GuardConfig{TripThreshold: 2}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(origin.NewServer(engine))
		defer ts.Close()
		addrs = append(addrs, ts.URL)
		engines = append(engines, engine)
	}
	engines[1].QuarantineProvider("cdn.example.com")
	gw, err := gateway.NewGateway(gateway.Config{Backends: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gts := httptest.NewServer(gw)
	defer gts.Close()

	body, err := json.Marshal(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(gts.URL+origin.ReportPathV1, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("POST report via gateway = %d", resp.StatusCode)
	}
	gw.ProbeOnce()

	var out bytes.Buffer
	if err := run([]string{"-cluster", gts.URL}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"status ok", "1 users, 1 reports across the fleet",
		addrs[0], addrs[1], "healthy",
		"open breakers (fleet union):     cdn.example.com",
		"degraded providers (fleet union): none",
		rowOf("forwarded reports", 1),
		rowOf("forwarded pages", 0),
		rowOf("probe cycles", 1),
		rowOf("replacements", 0),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
