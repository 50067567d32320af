package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"oak/internal/rules"
)

// Import-path agreement: every route by which persisted state re-enters an
// engine — ImportState, ImportShippedState, SaveStateFile→LoadStateFile and
// a range-by-range ImportStateRange cover — must rebuild exactly the state
// the donor exported, on an engine running every subsystem that persists
// (guard, population) and a residency cap that spills part of the
// population on both sides.

const agreementUsers = 40

// agreementEngine builds a 4-shard engine with the guard on, synthesis on
// and a residency cap below agreementUsers, over its own spill directory.
func agreementEngine(t *testing.T, clock *testClock) *Engine {
	t.Helper()
	e, err := NewEngine([]*rules.Rule{jqRule(0)},
		WithClock(clock.Now),
		WithShards(4),
		WithGuard(GuardConfig{TripThreshold: 3}),
		WithSynthesis(SynthesisConfig{Window: time.Minute}),
		WithProfileResidency(ResidencyConfig{Dir: t.TempDir(), MaxProfiles: 8}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// checkResidencyAccounting requires every user to be counted exactly once,
// resident or spilled.
func checkResidencyAccounting(t *testing.T, path string, e *Engine) {
	t.Helper()
	sp := e.Status().Spill
	if sp == nil {
		t.Fatalf("%s: no spill section", path)
	}
	if got := sp.ProfilesResident + sp.ProfilesSpilled; got != agreementUsers {
		t.Errorf("%s: resident %d + spilled %d = %d, want %d",
			path, sp.ProfilesResident, sp.ProfilesSpilled, got, agreementUsers)
	}
}

func TestImportPathsAgree(t *testing.T) {
	clock := newTestClock()
	donor := agreementEngine(t, clock)
	for i := 0; i < agreementUsers; i++ {
		clock.Advance(time.Second) // distinct lastReport per user
		uid := fmt.Sprintf("agree-%d-%08x", i, uint32(i)*2654435761)
		if _, err := donor.HandleReport(slowS1Report(uid)); err != nil {
			t.Fatal(err)
		}
	}
	donor.QuarantineProvider("q.example")
	donor.MarkDegraded("d.example")
	if sp := donor.Status().Spill; sp == nil || sp.ProfilesSpilled == 0 {
		t.Fatalf("donor spilled nothing: %+v", sp)
	}
	checkResidencyAccounting(t, "donor", donor)

	want, err := donor.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"active"`, `"guard"`, `"population"`} {
		if !bytes.Contains(want, []byte(key)) {
			t.Fatalf("donor snapshot lacks %s", key)
		}
	}

	paths := []struct {
		name    string
		rebuild func(e *Engine) error
	}{
		{"ImportState", func(e *Engine) error { return e.ImportState(want) }},
		{"ImportShippedState", func(e *Engine) error { return e.ImportShippedState(want) }},
		{"LoadStateFile", func(e *Engine) error {
			path := filepath.Join(t.TempDir(), "state.json")
			if err := donor.SaveStateFile(path); err != nil {
				return err
			}
			_, err := e.LoadStateFile(path)
			return err
		}},
		{"ImportStateRange", func(e *Engine) error {
			for _, r := range EqualRanges(4) {
				arc, err := donor.ExportSnapshotRange(r)
				if err != nil {
					return err
				}
				if err := e.ImportStateRange(r, arc); err != nil {
					return fmt.Errorf("arc %v: %w", r, err)
				}
			}
			return nil
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			e := agreementEngine(t, clock)
			if err := p.rebuild(e); err != nil {
				t.Fatal(err)
			}
			got, err := e.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("re-export differs from the donor's snapshot:\n--- donor\n%s\n--- %s\n%s",
					want, p.name, got)
			}
			checkResidencyAccounting(t, p.name, e)
		})
	}
}
