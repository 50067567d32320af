package main

import (
	"fmt"

	"oak"
)

// oakdGuard is oakd's default breaker configuration.
var oakdGuard = oak.WithGuard(oak.GuardConfig{TripThreshold: 5, HalfOpenCanaries: 3})

// engineOptions are the engine options oakd derives from the workload's
// flags (see cmd/oakd buildServer): the default rewrite cache, the default
// guard when guard is set, and the spill tier when the workload caps
// residency.
func engineOptions(w Workload, spillDir string, guard bool) []oak.EngineOption {
	opts := []oak.EngineOption{oak.WithRewriteCache(1024)}
	if guard {
		opts = append(opts, oakdGuard)
	}
	if w.SpillCap > 0 {
		opts = append(opts, oak.WithProfileResidency(oak.ResidencyConfig{Dir: spillDir, MaxProfiles: w.SpillCap}))
	}
	return opts
}

// Reference is the in-process engine every response is checked against.
// It has the workload's rules, pages and guard policy but neither the
// rewrite cache nor the spill tier: both are documented as not changing
// what a user is served, so leaving them out makes the check catch them if
// they do. It is fed each user's reports in stream order, which the load
// generator preserves per user (one connection per user, one op in flight).
type Reference struct {
	f    *Fixture
	eng  *oak.Engine
	memo map[memoKey]uint64
}

type memoKey struct {
	path string
	fp   uint64
}

// NewReference builds the reference engine for f.
func NewReference(f *Fixture) (*Reference, error) {
	eng, err := oak.NewEngine(f.Rules, oakdGuard)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	return &Reference{f: f, eng: eng, memo: map[memoKey]uint64{}}, nil
}

// Close releases the reference engine.
func (r *Reference) Close() { _ = r.eng.Close() }

// Ingest feeds one acknowledged report.
func (r *Reference) Ingest(rep *oak.Report) error {
	_, err := r.eng.HandleReport(rep)
	return err
}

// Advance applies ops in stream order: reports are ingested and each page
// op gets the digest of the page the user must be served at that point.
// Equal activation fingerprints guarantee byte-identical rewrites, so the
// digest is memoized per (path, fingerprint).
func (r *Reference) Advance(ops []*Op) error {
	for _, op := range ops {
		if !op.Page {
			if err := r.Ingest(op.Rep); err != nil {
				return err
			}
			continue
		}
		uid := UserID(op.User)
		fp := r.eng.ActivationFingerprint(uid, op.Path)
		if fp == 0 {
			op.Want = r.f.PageHash[op.Path]
			continue
		}
		k := memoKey{op.Path, fp}
		want, ok := r.memo[k]
		if !ok {
			rw := r.eng.RewritePage(uid, op.Path, r.f.Pages[op.Path])
			want = pageDigest([]byte(rw.HTML), rw.Hint)
			r.memo[k] = want
		}
		op.Want = want
	}
	return nil
}

// Counters returns the reference's decision counters that the program's
// /oak/v1/metrics must match at the end of a run.
func (r *Reference) Counters() (activations, violations uint64) {
	m := r.eng.Metrics()
	return m.RuleActivations, m.ViolationsDetected
}
