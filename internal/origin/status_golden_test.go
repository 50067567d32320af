package origin_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
	"oak/internal/rules"
)

// The status golden test pins the operator surface byte for byte: every
// subsystem that contributes to /oak/v1/metrics, /oak/v1/healthz and
// /oak/v1/population is switched on and driven by a seeded report stream,
// and the bodies a single node and a 2-backend gateway serve are compared
// against testdata/status_*.golden. Only values that depend on wall-clock
// timing are blanked (see blankTiming). Regenerate with
//
//	go test ./internal/origin -run TestStatusGolden -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/status_*.golden from the current output")

// goldenClock is a manually advanced engine clock.
type goldenClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *goldenClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *goldenClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

const goldenPage = `<html><script src="http://s1.com/jquery.js"></script></html>`

// goldenServer builds a node with guard, synthesis, a residency cap with a
// spill directory, an ingest pipeline and a rewrite cache all on, on a
// fixed clock. The rewrite budget is off so no page delivery depends on
// scheduling.
func goldenServer(t *testing.T, clock *goldenClock) *origin.Server {
	t.Helper()
	rule := &rules.Rule{
		ID:           "jquery",
		Type:         rules.TypeReplaceSame,
		Default:      `<script src="http://s1.com/jquery.js">`,
		Alternatives: []string{`<script src="http://s2.net/jquery.js">`},
		Scope:        "*",
	}
	engine, err := core.NewEngine([]*rules.Rule{rule},
		core.WithClock(clock.Now),
		core.WithShards(4),
		core.WithGuard(core.GuardConfig{TripThreshold: 3, OpenFor: time.Hour, HalfOpenCanaries: 1, CloseAfter: 1}),
		core.WithSynthesis(core.SynthesisConfig{
			Window:             time.Minute,
			DegradeFactor:      1.5,
			Quantile:           0.75,
			MinSamples:         3,
			MinBaselineSamples: 3,
			MaxProviders:       8,
		}),
		core.WithProfileResidency(core.ResidencyConfig{Dir: t.TempDir(), MaxProfiles: 8}),
		core.WithIngestPipeline(core.IngestConfig{Workers: 2, QueueLen: 8}),
		core.WithRewriteCache(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	s := origin.NewServer(engine, origin.WithRewriteBudget(0))
	s.SetPage("/index.html", goldenPage)
	return s
}

// goldenReport renders a report body where host -> mean small-object time.
// Hosts are listed in the given order so the body is deterministic.
func goldenReport(user string, hosts []string, ms []int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"userId":%q,"page":"/index.html","entries":[`, user)
	for i, h := range hosts {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"url":"http://%s/obj.js","serverAddr":"ip-%s","sizeBytes":1024,"durationMillis":%d}`, h, h, ms[i])
	}
	b.WriteString("]}")
	return b.String()
}

// goldenClient posts reports and fetches pages as a given user.
type goldenClient struct {
	t    *testing.T
	base string
}

func (d goldenClient) report(user string, hosts []string, ms ...int) {
	d.t.Helper()
	req, _ := http.NewRequest(http.MethodPost, d.base+origin.ReportPathV1,
		strings.NewReader(goldenReport(user, hosts, ms)))
	req.Header.Set("Content-Type", "application/json")
	req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: user})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		d.t.Fatalf("POST report as %s = %d", user, resp.StatusCode)
	}
}

func (d goldenClient) page(user string) string {
	d.t.Helper()
	req, _ := http.NewRequest(http.MethodGet, d.base+"/index.html", nil)
	req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: user})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET page as %s = %d", user, resp.StatusCode)
	}
	return string(body)
}

func (d goldenClient) get(path string) []byte {
	d.t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		d.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	return body
}

var (
	soloHosts = []string{"s1.com"}
	peerHosts = []string{"s1.com", "a.example", "b.example", "c.example", "d.example"}
	altHosts  = []string{"s2.net", "a.example", "b.example", "c.example", "d.example"}
)

// driveGoldenStream runs the seeded stream against one node: a healthy
// window that builds s1.com's population baseline, a degraded window whose
// reports activate the jquery swap per user and whose tick flags s1.com,
// a synthesized activation for a user below the per-user gate, then three
// activated users reporting the s2.net alternate as the violator, which
// trips its breaker. Pages are fetched throughout, so the rewrite cache
// hits and misses, and early users are spilled and rehydrated.
func driveGoldenStream(t *testing.T, d goldenClient, clock *goldenClock) {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	tick := func(tag string) {
		clock.Advance(61 * time.Second)
		d.report(tag+"-tick", []string{"neutral.example"}, 50)
	}

	for i := 0; i < 8; i++ {
		d.report(fmt.Sprintf("warm-%d", i), soloHosts, 95+rng.Intn(10))
	}
	tick("warm")

	for i := 0; i < 4; i++ {
		u := fmt.Sprintf("bad-%d", i)
		d.report(u, peerHosts, 900+rng.Intn(200), 100, 110, 105, 95)
		d.page(u)
		d.page(u)
	}
	tick("bad")

	d.report("fresh", soloHosts, 100+rng.Intn(10))
	d.page("fresh")

	for i := 0; i < 3; i++ {
		d.report(fmt.Sprintf("bad-%d", i), altHosts, 4000+rng.Intn(2000), 100, 110, 105, 95)
	}
	for _, u := range []string{"bad-0", "bad-3", "warm-0", "fresh"} {
		d.page(u)
	}
}

// timingKeys name the values that depend on wall-clock timing: uptimes,
// snapshot ages, latency summaries, histogram buckets and per-shard
// latency summaries.
var timingKeys = map[string]bool{
	"uptime_seconds":       true,
	"snapshot_age_seconds": true,
	"ingest":               true,
	"rewrite":              true,
	"ingest_buckets":       true,
	"rewrite_buckets":      true,
	"ingest_shards":        true,
	"rehydrate":            true,
	"rehydrate_ns":         true,
}

var keyLine = regexp.MustCompile(`^(\s*)"([a-z_]+)": (.*)$`)

// blankTiming replaces the value of every timingKeys member in an indented
// JSON body with "-", leaving every other byte as served. A multi-line
// object or array value is skipped up to its closing line at the key's
// indentation.
func blankTiming(body []byte) []byte {
	var out bytes.Buffer
	lines := strings.Split(string(body), "\n")
	for i := 0; i < len(lines); i++ {
		m := keyLine.FindStringSubmatch(lines[i])
		if m == nil || !timingKeys[m[2]] {
			out.WriteString(lines[i])
			out.WriteByte('\n')
			continue
		}
		indent, val := m[1], m[3]
		if val == "{" || val == "[" {
			for i++; i < len(lines) && !strings.HasPrefix(lines[i], indent+"}") && !strings.HasPrefix(lines[i], indent+"]"); i++ {
			}
			val = strings.TrimSpace(lines[i])
		}
		comma := ""
		if strings.HasSuffix(val, ",") {
			comma = ","
		}
		fmt.Fprintf(&out, "%s%q: \"-\"%s\n", indent, m[2], comma)
	}
	return bytes.TrimSuffix(out.Bytes(), []byte("\n"))
}

func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	got := blankTiming(body)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

func TestStatusGolden(t *testing.T) {
	clock := &goldenClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	ts := httptest.NewServer(goldenServer(t, clock))
	defer ts.Close()
	d := goldenClient{t: t, base: ts.URL}
	driveGoldenStream(t, d, clock)

	// The stream must populate every section, or the goldens pin less
	// than they claim.
	metrics := d.get(origin.MetricsPathV1)
	for _, want := range []string{`"BreakerTrips": 1`, `"PopulationTrips": 1`, `"rehydrations": `, `"profiles_spilled": `, `"ingest_queue": {`} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("metrics body lacks %s:\n%s", want, metrics)
		}
	}
	healthz := d.get(origin.HealthzPathV1)
	for _, want := range []string{`"open_breakers": [`, `"degraded_providers": [`} {
		if !bytes.Contains(healthz, []byte(want)) {
			t.Errorf("healthz body lacks %s:\n%s", want, healthz)
		}
	}
	checkGolden(t, "status_metrics.golden", metrics)
	checkGolden(t, "status_healthz.golden", healthz)
	checkGolden(t, "status_population.golden", d.get(origin.PopulationPathV1))
}

func TestStatusGoldenGateway(t *testing.T) {
	clock := &goldenClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	var addrs []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(goldenServer(t, clock))
		defer ts.Close()
		addrs = append(addrs, ts.URL)
	}
	gw, err := gateway.NewGateway(gateway.Config{Backends: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gts := httptest.NewServer(gw)
	defer gts.Close()
	d := goldenClient{t: t, base: gts.URL}

	// Three users per backend, each activated by a slow s1.com report.
	rng := rand.New(rand.NewSource(12))
	ranges, perBackend := core.EqualRanges(2), make([]int, 2)
	for i := 0; perBackend[0]+perBackend[1] < 6; i++ {
		u := fmt.Sprintf("gw-user-%d", i)
		if b := core.RangeFor(u, ranges); perBackend[b] < 3 {
			perBackend[b]++
			d.report(u, peerHosts, 900+rng.Intn(200), 100, 110, 105, 95)
			d.page(u)
		}
	}
	gw.ProbeOnce()

	// Backend addresses are ephemeral ports; name them by index.
	anon := func(body []byte) []byte {
		for i, a := range addrs {
			body = bytes.ReplaceAll(body, []byte(a), []byte(fmt.Sprintf("http://backend-%d", i)))
		}
		return body
	}
	checkGolden(t, "status_gateway_metrics.golden", anon(d.get(origin.MetricsPathV1)))
	checkGolden(t, "status_gateway_healthz.golden", anon(d.get(origin.HealthzPathV1)))
}
