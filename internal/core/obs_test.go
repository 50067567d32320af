package core

import (
	"strings"
	"sync"
	"testing"

	"oak/internal/obs"
	"oak/internal/rules"
)

func TestEngineTraceRecordsDecisions(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	page := `<html><script src="http://s1.com/jquery.js"></html>`
	if out, _ := e.ModifyPage("u1", "/index.html", page); out == page {
		t.Fatal("page not modified; activation did not take")
	}

	evs := e.TraceRecent(100)
	kinds := make(map[obs.EventKind]int)
	for _, ev := range evs {
		kinds[ev.Kind]++
		if ev.User != "u1" {
			t.Errorf("event %s has user %q, want u1", ev.Kind, ev.User)
		}
		if ev.Time.IsZero() {
			t.Errorf("event %s has zero timestamp", ev.Kind)
		}
	}
	for _, want := range []obs.EventKind{obs.EventReport, obs.EventViolator, obs.EventActivate, obs.EventRewrite} {
		if kinds[want] == 0 {
			t.Errorf("trace missing %s event; got %v", want, kinds)
		}
	}
	// The activation event carries the full decision context.
	for _, ev := range evs {
		if ev.Kind == obs.EventActivate {
			if ev.RuleID != "jquery" || ev.Provider != "ip-s1.com" {
				t.Errorf("activate event = %+v, want rule jquery provider ip-s1.com", ev)
			}
			if !strings.Contains(ev.Detail, "alt") {
				t.Errorf("activate detail = %q, want alternative index", ev.Detail)
			}
		}
	}
}

func TestEngineTraceBounded(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithTraceCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.TraceRecent(1000)); got != 8 {
		t.Errorf("TraceRecent returned %d events, want ring capacity 8", got)
	}
}

func TestEngineLatencyHistograms(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	lat := e.Status().Latencies
	if lat.Ingest.Count != 0 || lat.Rewrite.Count != 0 {
		t.Fatalf("fresh engine has non-empty histograms: %+v", lat)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.HandleReport(slowS1Report("u1")); err != nil {
			t.Fatal(err)
		}
		e.ModifyPage("u1", "/index.html", "<html></html>")
	}
	lat = e.Status().Latencies
	if lat.Ingest.Count != 5 {
		t.Errorf("Ingest.Count = %d, want 5", lat.Ingest.Count)
	}
	if lat.Rewrite.Count != 5 {
		t.Errorf("Rewrite.Count = %d, want 5", lat.Rewrite.Count)
	}
	if lat.Ingest.Quantile(0.99) <= 0 || lat.Ingest.Max <= 0 {
		t.Errorf("Ingest percentiles not populated: %s", lat.Ingest)
	}
}

// TestEngineObsConcurrent hammers ingest, rewrite, trace reads and histogram
// snapshots from many goroutines; run with -race.
func TestEngineObsConcurrent(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithTraceCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := []string{"u1", "u2", "u3", "u4"}[g]
			for i := 0; i < 50; i++ {
				if _, err := e.HandleReport(slowS1Report(user)); err != nil {
					t.Error(err)
					return
				}
				e.ModifyPage(user, "/index.html", `<script src="http://s1.com/jquery.js">`)
				_ = e.TraceRecent(10)
				_ = e.Status()
			}
		}(g)
	}
	wg.Wait()
	lat := e.Status().Latencies
	if lat.Ingest.Count != 200 {
		t.Errorf("Ingest.Count = %d, want 200", lat.Ingest.Count)
	}
	if m := e.Metrics(); m.ReportsHandled != 200 {
		t.Errorf("ReportsHandled = %d, want 200", m.ReportsHandled)
	}
}
