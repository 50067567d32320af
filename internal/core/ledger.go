package core

import (
	"sort"
	"sync"
)

// Ledger aggregates rule-activation events across all users. It backs the
// paper's Figure 14 (what fraction of a site's users activate each rule) and
// Table 3 (individual vs common problem providers), and doubles as the
// "offline auditing tool" the discussion section describes: operators read
// it to learn which components of their site perform poorly in the wild.
//
// The ledger is written on every report ingested, so like the engine's
// profile state it is lock-striped by user ID: concurrent reports for
// different users rarely touch the same stripe. Reads (Stats, TotalUsers)
// merge the stripes; a user lands in exactly one stripe, so merged counts
// are exact, though a read concurrent with writes is weakly consistent
// across stripes.
//
// The ledger keeps every distinct user that ever reported (RecordUser) for
// the life of the process: PruneProfiles does not prune it, snapshots do
// not persist it, and the residency cap does not bound it.
type Ledger struct {
	stripes []ledgerStripe
}

// ledgerStripe holds the ledger entries of one slice of the user population.
type ledgerStripe struct {
	mu sync.Mutex
	// activations[ruleID][userID] = count
	activations map[string]map[string]int
	users       map[string]bool
}

// ledgerStripes is the stripe count (power of two; the stripe index is a
// mask). 32 stripes keep collision probability low at any realistic
// ingest parallelism without meaningful memory cost.
const ledgerStripes = 32

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	l := &Ledger{stripes: make([]ledgerStripe, ledgerStripes)}
	for i := range l.stripes {
		l.stripes[i].activations = make(map[string]map[string]int)
		l.stripes[i].users = make(map[string]bool)
	}
	return l
}

// stripeFor returns the stripe owning the user ID (FNV-1a, like the
// engine's shard hash).
func (l *Ledger) stripeFor(userID string) *ledgerStripe {
	h := uint32(fnvOffset32)
	for i := 0; i < len(userID); i++ {
		h ^= uint32(userID[i])
		h *= fnvPrime32
	}
	return &l.stripes[h&uint32(len(l.stripes)-1)]
}

// RecordUser notes that a user interacted with the site (so activation
// fractions have a denominator even for users who never trigger rules).
func (l *Ledger) RecordUser(userID string) {
	s := l.stripeFor(userID)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users[userID] = true
}

// RecordActivation notes that userID activated ruleID.
func (l *Ledger) RecordActivation(ruleID, userID string) {
	s := l.stripeFor(userID)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users[userID] = true
	m, ok := s.activations[ruleID]
	if !ok {
		m = make(map[string]int)
		s.activations[ruleID] = m
	}
	m[userID]++
}

// RuleStat summarises one rule's activation footprint.
type RuleStat struct {
	RuleID string
	// Users is how many distinct users activated the rule.
	Users int
	// Activations is the total activation count.
	Activations int
	// UserFraction is Users divided by all users seen by the ledger.
	UserFraction float64
}

// Stats returns per-rule activation statistics sorted by descending user
// fraction, then rule ID.
func (l *Ledger) Stats() []RuleStat {
	type ruleAgg struct {
		users, activations int
	}
	total := 0
	agg := make(map[string]*ruleAgg)
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		total += len(s.users)
		for id, byUser := range s.activations {
			a, ok := agg[id]
			if !ok {
				a = &ruleAgg{}
				agg[id] = a
			}
			// Each user lives in exactly one stripe, so distinct-user
			// counts add without double counting.
			a.users += len(byUser)
			for _, n := range byUser {
				a.activations += n
			}
		}
		s.mu.Unlock()
	}
	out := make([]RuleStat, 0, len(agg))
	for id, a := range agg {
		st := RuleStat{RuleID: id, Users: a.users, Activations: a.activations}
		if total > 0 {
			st.UserFraction = float64(a.users) / float64(total)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].UserFraction != out[j].UserFraction {
			return out[i].UserFraction > out[j].UserFraction
		}
		return out[i].RuleID < out[j].RuleID
	})
	return out
}

// TotalUsers returns how many distinct users the ledger has seen.
func (l *Ledger) TotalUsers() int {
	total := 0
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		total += len(s.users)
		s.mu.Unlock()
	}
	return total
}

// Split partitions rules into "individual" (activated by at most threshold
// of users) and "common" (more), the paper's Table 3 cut at 18 %.
func (l *Ledger) Split(threshold float64) (individual, common []RuleStat) {
	for _, st := range l.Stats() {
		if st.UserFraction > threshold {
			common = append(common, st)
		} else {
			individual = append(individual, st)
		}
	}
	return individual, common
}
