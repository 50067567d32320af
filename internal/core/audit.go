package core

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Auditing: the paper's discussion observes that "examining which rules are
// being activated by clients enables site operators to determine which
// components of their sites are performing poorly, effectively using the
// performance reports of Oak as an offline auditing tool". Audit assembles
// that view: per-rule activation footprints, the worst-offending servers,
// and the engine's aggregate counters.

// AuditEntry is one rule's activation footprint.
type AuditEntry struct {
	RuleID string
	// Users / UserFraction / Activations come from the ledger.
	Users        int
	UserFraction float64
	Activations  int
	// Classification is "common" (>18 % of users, a provider-side problem)
	// or "individual" (client-specific conditions), the paper's Table 3
	// split.
	Classification string
}

// AuditServerEntry is one server's violation footprint across users.
type AuditServerEntry struct {
	ServerAddr string
	// Users counts distinct users for whom the server violated.
	Users int
	// Violations is the total violation count across reports.
	Violations int
}

// Audit is an operator-facing summary of everything Oak has learned.
type Audit struct {
	GeneratedAt time.Time
	// Users counts every profile, resident and spilled (Engine.Users).
	Users   int
	Metrics Metrics
	Rules   []AuditEntry
	// WorstServers lists servers by violation footprint, descending. It
	// walks resident profiles only: with a spill tier, spilled users'
	// violations are missing from it though Users counts those users.
	WorstServers []AuditServerEntry
}

// commonThreshold is the paper's individual/common cut (18 % of users).
const commonThreshold = 0.18

// Audit builds the operator summary.
func (e *Engine) Audit() *Audit {
	a := &Audit{
		GeneratedAt: e.now(),
		Users:       e.Users(),
		Metrics:     e.Metrics(),
	}
	for _, st := range e.ledger.Stats() {
		cls := "individual"
		if st.UserFraction > commonThreshold {
			cls = "common"
		}
		a.Rules = append(a.Rules, AuditEntry{
			RuleID:         st.RuleID,
			Users:          st.Users,
			UserFraction:   st.UserFraction,
			Activations:    st.Activations,
			Classification: cls,
		})
	}

	type sv struct {
		users, violations int
	}
	// Violation footprints are collected shard by shard (weakly consistent
	// under concurrent ingest; each user lives in exactly one shard, so
	// per-server user counts stay exact).
	servers := make(map[string]*sv)
	for _, sh := range e.shards {
		sh.mu.RLock()
		for _, prof := range sh.profiles {
			for addr, n := range prof.violations {
				entry, ok := servers[addr]
				if !ok {
					entry = &sv{}
					servers[addr] = entry
				}
				entry.users++
				entry.violations += n
			}
		}
		sh.mu.RUnlock()
	}
	for addr, entry := range servers {
		a.WorstServers = append(a.WorstServers, AuditServerEntry{
			ServerAddr: addr, Users: entry.users, Violations: entry.violations,
		})
	}
	sort.Slice(a.WorstServers, func(i, j int) bool {
		if a.WorstServers[i].Violations != a.WorstServers[j].Violations {
			return a.WorstServers[i].Violations > a.WorstServers[j].Violations
		}
		return a.WorstServers[i].ServerAddr < a.WorstServers[j].ServerAddr
	})
	return a
}

// Render formats the audit as a text report.
func (a *Audit) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Oak audit — generated %s\n", a.GeneratedAt.Format(time.RFC3339))
	fmt.Fprintf(&b, "users: %d   reports: %d   objects: %d   violations: %d\n",
		a.Users, a.Metrics.ReportsHandled, a.Metrics.EntriesProcessed, a.Metrics.ViolationsDetected)
	fmt.Fprintf(&b, "rule activations: %d   reverts: %d   expiries: %d   pages rewritten: %d\n",
		a.Metrics.RuleActivations, a.Metrics.RuleDeactivations, a.Metrics.RuleExpirations,
		a.Metrics.PagesModified)

	if len(a.WorstServers) > 0 {
		b.WriteString("\nworst servers (by violation count):\n")
		top := a.WorstServers
		if len(top) > 10 {
			top = top[:10]
		}
		for _, s := range top {
			fmt.Fprintf(&b, "  %-40s violations=%-5d users=%d\n", s.ServerAddr, s.Violations, s.Users)
		}
	}
	if len(a.Rules) > 0 {
		b.WriteString("\nrule activation footprint:\n")
		for _, r := range a.Rules {
			fmt.Fprintf(&b, "  %-40s %-10s users=%-4d (%.0f%%) activations=%d\n",
				r.RuleID, r.Classification, r.Users, 100*r.UserFraction, r.Activations)
		}
	}
	return b.String()
}
