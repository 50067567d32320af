package gateway_test

// Exchange tests: every gateway→backend request follows the same failover
// and size rules, and a backend address swapped by Replace is never read
// unlocked by a concurrent forward, probe, sweep or poll.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"oak/internal/client"
	"oak/internal/core"
	"oak/internal/gateway"
	"oak/internal/origin"
)

// gatewayCounters reads the gateway's own counters off its metrics surface.
func gatewayCounters(t *testing.T, gw *gateway.Gateway) gateway.GatewayMetrics {
	t.Helper()
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", origin.MetricsPathV1, nil))
	var cm gateway.ClusterMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cm); err != nil {
		t.Fatalf("decode gateway metrics: %v", err)
	}
	return cm.Gateway
}

// postReport sends one cookie'd JSON report through the gateway.
func postReport(gw *gateway.Gateway, uid string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", origin.ReportPathV1,
		strings.NewReader(`{"userId":"`+uid+`","page":"/p","entries":[]}`))
	req.Header.Set("Content-Type", "application/json")
	req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: uid})
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	return rec
}

// getPage fetches one cookie'd page through the gateway.
func getPage(gw *gateway.Gateway, uid string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", "/index.html", nil)
	req.AddCookie(&http.Cookie{Name: origin.CookieName, Value: uid})
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, req)
	return rec
}

// Replace rewrites a backend's address while forwards, probes, the control
// sweep, snapshot polling and the metrics fan-out all read it. Under -race
// this fails if any of them reads the address without the backend's lock.
func TestBackendAddressRaceUnderReplace(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	alt := newFakeBackend(t)
	for _, f := range append(fakes, alt) {
		f.stateServe = []byte("OAKSNAP2-STAND-IN")
		f.pop = &core.PopulationStatus{}
	}
	gw := newTestGatewayWith(t, gateway.Config{Logf: func(string, ...any) {}}, fakes, nil)
	gw.ProbeOnce()
	gw.ShipSnapshots()
	uid := userFor(t, 1, 2)

	done := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(op func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					op()
				}
			}
		}()
	}
	loop(func() {
		if rec := getPage(gw, uid); rec.Code != http.StatusOK {
			t.Errorf("page during replacement: status %d: %s", rec.Code, rec.Body.String())
		}
	})
	loop(func() {
		if rec := postReport(gw, uid); rec.Code != http.StatusNoContent {
			t.Errorf("report during replacement: status %d: %s", rec.Code, rec.Body.String())
		}
	})
	loop(func() { gw.ProbeOnce(); gw.ControlSweep() })
	loop(gw.ShipSnapshots)
	loop(func() { gw.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", origin.MetricsPathV1, nil)) })

	targets := []*fakeBackend{alt, fakes[1]}
	for i := 0; i < 200; i++ {
		if err := gw.Replace(t.Context(), 1, targets[i%2].ts.URL); err != nil {
			t.Errorf("replace %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	if got := gatewayCounters(t, gw).Replacements; got != 200 {
		t.Errorf("replacements = %d, want 200", got)
	}
}

// A page declared longer than the gateway's 64 MiB forward bound must fail
// the exchange — served by the fallback, or 502 — never relayed cut short
// with a 200.
func TestOverBoundPageNeverServedCut(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	fakes[0].mu.Lock()
	fakes[0].pageLength = 64<<20 + 1
	fakes[0].mu.Unlock()
	gw := newTestGateway(t, fakes, nil)

	rec := getPage(gw, userFor(t, 0, 2))
	fURL, _ := url.Parse(fakes[1].ts.URL)
	switch {
	case rec.Code == http.StatusBadGateway:
	case rec.Code == http.StatusOK && rec.Body.String() == "page-from-"+fURL.Host:
	default:
		t.Fatalf("over-bound page: status %d with %d body bytes, want 502 or the fallback's page",
			rec.Code, rec.Body.Len())
	}
}

// A report whose owner's listener is gone before any probe notices fails
// over to the standby, once.
func TestReportFailoverToStandby(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	standby := newFakeBackend(t)
	gw := newTestGateway(t, fakes, standby)
	fakes[0].ts.Close()

	uid := userFor(t, 0, 2)
	if rec := postReport(gw, uid); rec.Code != http.StatusNoContent {
		t.Fatalf("report with its owner gone: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := standby.snapshot().reports; len(got) != 1 || !strings.Contains(got[0], uid) {
		t.Errorf("standby received %q, want the one report for %s", got, uid)
	}
	if got := fakes[1].snapshot().reports; len(got) != 0 {
		t.Errorf("non-owner backend received %d reports, want 0", len(got))
	}
	if got := gatewayCounters(t, gw).Failovers; got != 1 {
		t.Errorf("gateway.failovers = %d, want 1", got)
	}
}

// A backend's 503 is an answer, not a failed exchange: once the retry
// schedule is spent it reaches the client with its Retry-After intact.
func TestReportRelaysShedResponse(t *testing.T) {
	fakes := []*fakeBackend{newFakeBackend(t), newFakeBackend(t)}
	fakes[0].shedAfter = "2"
	gw := newTestGatewayWith(t, gateway.Config{Retry: client.RetryPolicy{MaxAttempts: 1}, Logf: t.Logf}, fakes, nil)

	rec := postReport(gw, userFor(t, 0, 2))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "2" {
		t.Fatalf("shed report: status %d, Retry-After %q; want 503 with Retry-After 2",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if got := fakes[1].snapshot().reports; len(got) != 0 {
		t.Errorf("shed report failed over: backend 1 received %d reports", len(got))
	}
}
