package core

import (
	"bytes"
	"testing"
	"time"

	"oak/internal/rules"
)

// Snapshot compatibility across the synthesis boundary: pre-synthesis
// snapshots (no "population" key) and legacy plain-JSON state files must
// load into synthesis-enabled engines with empty population state and
// re-export byte-identically; snapshots carrying degraded episodes must
// restore them (and the Synthesized provenance on activations).

// popPinnedEngines builds a synthesis-less source engine and a
// synthesis-enabled target engine on identically pinned clocks, so exports
// are byte-comparable.
func popPinnedEngines(t *testing.T) (src, dst *Engine) {
	t.Helper()
	srcClock, dstClock := newTestClock(), newTestClock()
	var err error
	src, err = NewEngine([]*rules.Rule{jqRule(0)}, WithClock(srcClock.Now))
	if err != nil {
		t.Fatal(err)
	}
	dst, err = NewEngine([]*rules.Rule{jqRule(0)}, WithClock(dstClock.Now),
		WithSynthesis(SynthesisConfig{Window: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	return src, dst
}

func TestPreSynthesisSnapshotLoadsWithEmptyPopulationState(t *testing.T) {
	src, dst := popPinnedEngines(t)
	if _, err := src.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	snap, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snap, []byte(`"population"`)) {
		t.Fatalf("synthesis-less snapshot contains a population section:\n%s", snap)
	}

	if err := dst.ImportState(snap); err != nil {
		t.Fatalf("pre-synthesis snapshot rejected by synthesis-enabled engine: %v", err)
	}
	if dst.Users() != 1 {
		t.Errorf("Users = %d, want 1", dst.Users())
	}
	if got := degradedProviders(dst); len(got) != 0 {
		t.Errorf("DegradedProviders after pre-synthesis import = %v, want none", got)
	}

	// With no ongoing episodes the population section is omitted, so the
	// re-export is byte-identical to the pre-synthesis snapshot.
	reexport, err := dst.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, reexport) {
		t.Errorf("re-export differs from pre-synthesis snapshot:\n--- original\n%s\n--- re-export\n%s",
			snap, reexport)
	}
}

func TestLegacyPlainJSONLoadsWithEmptyPopulationState(t *testing.T) {
	src, dst := popPinnedEngines(t)
	if _, err := src.HandleReport(slowS1Report("u1")); err != nil {
		t.Fatal(err)
	}
	legacy, err := src.ExportState() // headerless: the legacy format
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportState(legacy); err != nil {
		t.Fatalf("legacy state rejected by synthesis-enabled engine: %v", err)
	}
	reexport, err := dst.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy, reexport) {
		t.Errorf("re-export differs from legacy state:\n--- original\n%s\n--- re-export\n%s",
			legacy, reexport)
	}
}

func TestPopulationStateSurvivesSnapshotRoundTrip(t *testing.T) {
	clock := newTestClock()
	mk := func() *Engine {
		e, err := NewEngine([]*rules.Rule{jqRule(0)}, WithClock(clock.Now),
			WithSynthesis(SynthesisConfig{Window: time.Minute}))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	e1.MarkDegraded("s1.com")
	// A synthesized activation under the flag, so provenance round-trips.
	if _, err := e1.HandleReport(loadReport("u1", map[string]float64{"s1.com": 60})); err != nil {
		t.Fatal(err)
	}
	snap, err := e1.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte(`"population"`)) {
		t.Fatalf("snapshot missing population section:\n%s", snap)
	}
	if !bytes.Contains(snap, []byte(`"synthesized": true`)) {
		t.Fatalf("snapshot missing synthesized provenance:\n%s", snap)
	}

	e2 := mk()
	if err := e2.ImportState(snap); err != nil {
		t.Fatal(err)
	}
	if got := degradedProviders(e2); len(got) != 1 || got[0] != "s1.com" {
		t.Errorf("DegradedProviders after import = %v, want [s1.com]", got)
	}
	ps := e2.Status().Population
	if len(ps.Degraded) != 1 || !ps.Degraded[0].Manual {
		t.Errorf("degraded after import = %+v, want one manual episode", ps.Degraded)
	}
	// The imported state re-exports byte-identically (before any new
	// traffic mutates it).
	reexport, err := e2.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, reexport) {
		t.Errorf("round-trip re-export differs:\n--- original\n%s\n--- re-export\n%s", snap, reexport)
	}
	// And the restored flag still drives synthesis for new users.
	res, err := e2.HandleReport(loadReport("u2", map[string]float64{"s1.com": 60}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) != 1 || !res.Changes[0].Synthesized {
		t.Errorf("changes after import = %+v, want synthesized activate", res.Changes)
	}
}
