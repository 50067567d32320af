package core

import (
	"fmt"
	"sync"
	"testing"

	"oak/internal/rules"
)

// TestGuardConcurrentTripAndServe hammers the guard's cross-shard paths under
// the race detector: breaker trips (bulk deactivation, one shard write lock
// at a time) racing ingest, cached serves, state export and manual overrides.
func TestGuardConcurrentTripAndServe(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)},
		WithShards(4),
		WithRewriteCache(64),
		WithGuard(GuardConfig{TripThreshold: 2, HalfOpenCanaries: 2, CloseAfter: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 4
		iters   = 50
	)
	page := `<html><script src="http://s1.com/jquery.js"></script></html>`
	var wg sync.WaitGroup

	// Ingesters: keep activating users onto s2.net.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u := fmt.Sprintf("user-%d-%d", w, i%8)
				if _, err := e.HandleReport(slowS1Report(u)); err != nil {
					t.Errorf("HandleReport: %v", err)
					return
				}
			}
		}(w)
	}
	// Servers: rewrite pages (hitting and filling the rewrite cache).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u := fmt.Sprintf("user-%d-%d", w, i%8)
				e.ModifyPage(u, "/index.html", page)
				e.ModifyPage(u, "/index.html", page) // immediate re-serve: cache hit path
			}
		}(w)
	}
	// Tripper: bad outcome bursts (trips + bulk rollbacks) interleaved with
	// good outcomes and manual releases.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			e.ObserveProviderOutcome("s2.net", false, 400)
			e.ObserveProviderOutcome("s2.net", false, 400)
			e.ObserveProviderOutcome("s2.net", true, 50)
			if i%5 == 0 {
				e.ReleaseProvider("s2.net")
			}
		}
	}()
	// Rule quarantine flapping: synchronous cross-shard rollback scans.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			e.QuarantineRule("jquery")
			e.ReleaseRule("jquery")
		}
	}()
	// Exporter: weakly consistent cross-shard snapshots during the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/2; i++ {
			if _, err := e.ExportState(); err != nil {
				t.Errorf("ExportState: %v", err)
				return
			}
			e.Status()
			e.Metrics()
		}
	}()
	wg.Wait()

	// The engine must still be coherent: release everything and confirm the
	// control loop works end to end.
	e.ReleaseProvider("s2.net")
	e.ReleaseRule("jquery")
	if _, err := e.HandleReport(slowS1Report("final-user")); err != nil {
		t.Fatal(err)
	}
	if e.Users() == 0 {
		t.Error("no users after hammer")
	}
	if _, err := e.ExportSnapshot(); err != nil {
		t.Fatalf("final export: %v", err)
	}
}
