package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync/atomic"
	"time"

	"oak/internal/guard"
)

// State persistence: an Oak deployment restarts without losing what it has
// learned about its users. ExportState captures every profile's violation
// counters and live activations; ImportState restores them against the
// current rule set (activations of rules that no longer exist are dropped,
// and expired activations are not resurrected).
//
// Both operations iterate the engine's shards deterministically: profiles
// are collected shard by shard (each shard read-locked while it is copied)
// and the output is globally sorted by user ID, so an export is stable
// regardless of shard count or hash layout, and a state file exported from
// an engine with one shard count imports cleanly into an engine with
// another. An export taken during concurrent ingest is weakly consistent
// across shards (each shard's slice is a true point-in-time copy).

// persistedState is the on-disk envelope. Guard and Population are additive
// (omitted when empty or on engines without the subsystem), so snapshots
// from engines without that state stay byte-identical to the earlier
// formats, and older snapshots decode with nil sections — which import as
// empty guard/population state.
type persistedState struct {
	Version int       `json:"version"`
	SavedAt time.Time `json:"savedAt"`
	// Range, present only on partial (per-user-range) exports, records the
	// half-open arc of the user-hash ring the profiles were filtered to.
	// Whole-engine exports omit it, so they stay byte-identical to earlier
	// format generations.
	Range      *persistedRange    `json:"range,omitempty"`
	Profiles   []persistedProfile `json:"profiles"`
	Guard      *guard.Persisted   `json:"guard,omitempty"`
	Population *popPersisted      `json:"population,omitempty"`
}

// persistedRange is the on-disk form of a HashRange.
type persistedRange struct {
	Lo uint32 `json:"lo"`
	Hi uint32 `json:"hi"`
}

type persistedProfile struct {
	UserID     string                `json:"userId"`
	Violations map[string]int        `json:"violations,omitempty"`
	Active     []persistedActivation `json:"active,omitempty"`
	LastReport time.Time             `json:"lastReport,omitempty"`
}

type persistedActivation struct {
	RuleID          string    `json:"ruleId"`
	AltIndex        int       `json:"altIndex"`
	ActivatedAt     time.Time `json:"activatedAt"`
	ExpiresAt       time.Time `json:"expiresAt,omitempty"`
	TriggerServer   string    `json:"triggerServer,omitempty"`
	TriggerDistance float64   `json:"triggerDistance,omitempty"`
	Activations     int       `json:"activations"`
	Synthesized     bool      `json:"synthesized,omitempty"`
}

// stateVersion is the current persistence format version.
const stateVersion = 1

// Typed import failures. ErrCorruptState covers everything a damaged file
// can look like — truncation, checksum mismatch, undecodable JSON, an empty
// file — so callers (LoadStateFile, oakd boot) can tell "this file is
// damaged, try the backup" apart from I/O errors. ErrStateVersion marks a
// structurally intact snapshot written by an incompatible format version.
var (
	ErrCorruptState = errors.New("engine: corrupt state")
	ErrStateVersion = errors.New("engine: unsupported state version")
)

// Snapshot envelope: ExportSnapshot wraps the JSON payload in a one-line
// header carrying a magic marker, a CRC-32C checksum and the payload
// length, so ImportState can detect torn or bit-flipped state files instead
// of restoring garbage. Headerless input is accepted as the legacy plain
// JSON format, so snapshot files written before the envelope existed still
// load.
const (
	snapshotMagic  = "OAKSNAP"
	snapshotHeader = snapshotMagic + "2 crc32c=%08x len=%d\n"
)

// snapshotCRC is the Castagnoli table used for snapshot checksums.
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// ExportSnapshot serialises all per-user state as a checksummed snapshot:
// one header line (magic, CRC-32C of the payload, payload length) followed
// by the ExportState JSON payload. ImportState verifies the checksum before
// touching any profile.
func (e *Engine) ExportSnapshot() ([]byte, error) {
	payload, err := e.ExportState()
	if err != nil {
		return nil, err
	}
	return wrapSnapshot(payload), nil
}

// wrapSnapshot prepends the checksummed OAKSNAP2 envelope to a state
// payload.
func wrapSnapshot(payload []byte) []byte {
	header := fmt.Sprintf(snapshotHeader, crc32.Checksum(payload, snapshotCRC), len(payload))
	return append([]byte(header), payload...)
}

// unwrapSnapshot strips and verifies the snapshot envelope, returning the
// JSON payload. Input without the magic prefix is returned as-is (legacy
// plain-JSON state files). A present-but-damaged envelope is ErrCorruptState;
// an envelope from an unknown format generation is ErrStateVersion.
func unwrapSnapshot(data []byte) ([]byte, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return data, nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: snapshot header not terminated", ErrCorruptState)
	}
	var (
		sum    uint32
		length int
	)
	n, err := fmt.Sscanf(string(data[:nl+1]), snapshotHeader, &sum, &length)
	if err != nil || n != 2 {
		// The magic matched but the header did not parse as generation 2:
		// either a corrupted header or a future format.
		if bytes.HasPrefix(data, []byte(snapshotMagic+"2 ")) {
			return nil, fmt.Errorf("%w: malformed snapshot header", ErrCorruptState)
		}
		return nil, fmt.Errorf("%w: unknown snapshot generation %q", ErrStateVersion, string(data[:nl]))
	}
	payload := data[nl+1:]
	if len(payload) != length {
		return nil, fmt.Errorf("%w: snapshot truncated: header says %d payload bytes, have %d",
			ErrCorruptState, length, len(payload))
	}
	if got := crc32.Checksum(payload, snapshotCRC); got != sum {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch: header %08x, payload %08x",
			ErrCorruptState, sum, got)
	}
	return payload, nil
}

// ExportState serialises all per-user state as JSON.
func (e *Engine) ExportState() ([]byte, error) {
	return e.exportStateRange(HashRange{})
}

// exportStateRange serialises the per-user state of one arc of the hash
// ring (the whole ring when r is the whole-space range). Guard and
// population sections are engine-global, not per-user, so every range
// export carries them in full; a whole-space export is byte-identical to
// ExportState.
func (e *Engine) exportStateRange(r HashRange) ([]byte, error) {
	st := persistedState{Version: stateVersion, SavedAt: e.now()}
	if !r.Whole() {
		st.Range = &persistedRange{Lo: r.Lo, Hi: r.Hi}
	}
	if e.guard != nil {
		st.Guard = e.guard.Export() // nil (omitted) when nothing to persist
	}
	st.Population = e.exportPop() // nil (omitted) when nothing to persist

	for _, sh := range e.shards {
		sh.mu.RLock()
		for uid, prof := range sh.profiles {
			if !r.Contains(userHash(uid)) {
				continue
			}
			st.Profiles = append(st.Profiles, snapshotProfile(prof))
		}
		// Spilled profiles are part of the engine's state: their records
		// decode straight to the persisted form, so a mixed resident/spilled
		// population exports byte-identically to an all-resident one. The
		// OAKPROF1 time encoding preserves the wall clock and offset exactly
		// for this reason.
		for uid, ref := range sh.spilled {
			if !r.Contains(userHash(uid)) {
				continue
			}
			if ref.seg.quarantined.Load() {
				continue // record lost with its segment; statefile covers it
			}
			pp, err := e.spill.readRecord(ref)
			if err != nil {
				if isSpillDamage(err) {
					// Damaged record: the segment's bytes are proven bad, so
					// quarantine it exactly as the rehydrate path would —
					// healthz goes degraded and the loss shows up in the
					// quarantine accounting instead of the export silently
					// omitting a user still indexed as spilled. The ref
					// itself is dropped lazily on next touch (we hold only
					// the read lock here).
					e.spill.quarantineSegment(e, ref.seg, err)
					continue
				}
				// I/O failure: fail the export rather than install a
				// snapshot silently missing acknowledged profiles — the
				// previous good snapshot stays in place and the segment
				// records remain recoverable at next boot.
				sh.mu.RUnlock()
				return nil, fmt.Errorf("engine: export spilled profile %q: %w", uid, err)
			}
			st.Profiles = append(st.Profiles, *pp)
		}
		sh.mu.RUnlock()
	}
	// Global ordering by user ID keeps the export deterministic and
	// independent of the shard layout.
	sort.Slice(st.Profiles, func(i, j int) bool {
		return st.Profiles[i].UserID < st.Profiles[j].UserID
	})
	return json.MarshalIndent(st, "", "  ")
}

// snapshotProfile deep-copies one profile into its persisted form. The
// caller must hold the profile's shard lock.
func snapshotProfile(prof *Profile) persistedProfile {
	pp := persistedProfile{
		UserID:     prof.UserID,
		Violations: make(map[string]int, len(prof.violations)),
		LastReport: prof.lastReport,
	}
	for srv, n := range prof.violations {
		pp.Violations[srv] = n
	}
	ruleIDs := make([]string, 0, len(prof.active))
	for rid := range prof.active {
		ruleIDs = append(ruleIDs, rid)
	}
	sort.Strings(ruleIDs)
	for _, rid := range ruleIDs {
		a := prof.active[rid]
		pp.Active = append(pp.Active, persistedActivation{
			RuleID:          rid,
			AltIndex:        a.AltIndex,
			ActivatedAt:     a.ActivatedAt,
			ExpiresAt:       a.ExpiresAt,
			TriggerServer:   a.TriggerServer,
			TriggerDistance: a.TriggerDistance,
			Activations:     a.Activations,
			Synthesized:     a.Synthesized,
		})
	}
	return pp
}

// ImportState restores per-user state exported by ExportState or
// ExportSnapshot (the checksummed envelope is detected and verified;
// headerless input is treated as the legacy plain-JSON format), replacing
// any existing profiles. Activations referring to rules absent from the
// engine's current rule set are dropped silently (the operator changed the
// configuration); expired activations are dropped too. The restore is
// atomic: every shard is locked for the swap, so no concurrent reader sees
// a half-imported state. Damaged input fails with ErrCorruptState — before
// any profile is touched — and incompatible format versions with
// ErrStateVersion.
func (e *Engine) ImportState(data []byte) error {
	return e.importState(data, HashRange{}, importReplace)
}

// importMode is how an import reconciles its payload with the state the
// engine already holds. Every mode replaces the resident profiles inside
// the imported arc; the modes differ on spill records and on the
// engine-global guard and population sections.
type importMode int

const (
	// importReplace (ImportState, ImportShippedState): the payload is the
	// complete truth, as a node replacement or an operator restore demands.
	// Every spill record is dropped; the guard and population sections are
	// replaced, and a nil section imports as empty state.
	importReplace importMode = iota
	// importBoot (LoadStateFile): importReplace, except that a spill record
	// whose last report is strictly after the payload's copy of that user
	// survives, and so do spilled users the payload lacks. That is what
	// makes a crash between spill-fsync and the next SaveStateFile lose
	// nothing that was acknowledged.
	importBoot
	// importSplice (ImportStateRange): the payload is authoritative inside
	// its arc only, and the guard and population sections are replaced only
	// when the payload carries them — a range donated by a peer updates this
	// node's protective state, while a stripped payload tops up profiles
	// without clobbering it.
	importSplice
)

// importState installs a payload's profiles for the arc r (the whole ring
// for every mode but importSplice) under mode's policy; profiles and spill
// records outside r are untouched. The payload is decoded and converted
// off-lock, so damaged input fails before any state is touched. The swap
// then holds every shard lock at once: no reader sees a half-imported
// state, and profiles become visible together with the guard and
// population state of the same snapshot. On engines with a residency cap
// the import ends by re-enforcing the cap, so restoring a large snapshot
// evicts back under it.
func (e *Engine) importState(data []byte, r HashRange, mode importMode) error {
	st, err := decodeState(data)
	if err != nil {
		return err
	}
	fresh, err := e.buildImport(st, r)
	if err != nil {
		return err
	}

	for _, sh := range e.shards {
		sh.mu.Lock()
	}
	spilledLive := int64(0)
	for i, sh := range e.shards {
		// Evict the arc's resident profiles and their provider-index entries.
		for uid, prof := range sh.profiles {
			if r.Contains(userHash(uid)) {
				delete(sh.profiles, uid)
				if e.spill != nil {
					sh.residentBytes.Add(-int64(prof.sizeEst))
				}
			}
		}
		for host, users := range sh.provIndex {
			for uid := range users {
				if r.Contains(userHash(uid)) {
					delete(users, uid)
				}
			}
			if len(users) == 0 {
				delete(sh.provIndex, host)
			}
		}
		if sh.spilled != nil {
			e.mergeSpillLocked(sh, fresh[i], mode == importBoot, r)
			spilledLive += int64(len(sh.spilled))
		}
		for uid, prof := range fresh[i] {
			sh.profiles[uid] = prof
			for rid, a := range prof.active {
				e.indexActivation(sh, uid, rid, a.AltIndex)
			}
			if e.spill != nil {
				sh.residentBytes.Add(int64(prof.sizeEst))
			}
		}
		sh.users.Set(int64(len(sh.profiles)))
	}
	if e.spill != nil {
		e.spill.spilledUsers.Set(spilledLive)
	}
	// st.Guard and st.Population are nil for snapshots written before the
	// subsystem existed (or by engines without it): empty state for a
	// whole-truth import, no news for a splice.
	if e.guard != nil && (mode != importSplice || st.Guard != nil) {
		e.guard.Import(st.Guard)
	}
	if mode != importSplice || st.Population != nil {
		e.importPop(st.Population)
	}
	for _, sh := range e.shards {
		sh.mu.Unlock()
	}
	// Evict back under the residency cap outside the all-locks window —
	// eviction takes one shard at a time.
	if e.spill != nil {
		for _, sh := range e.shards {
			e.enforceResidency(sh, "")
		}
	}
	return nil
}

// mergeSpillLocked reconciles one shard's spill index with an incoming
// import limited to r (whole ring for full imports). Authoritative mode
// drops every in-range spill record; newer-wins mode keeps records that are
// strictly newer than the payload's copy of the same user (removing that
// user from fresh) and records for in-range users the payload does not
// carry. Caller holds every shard lock (import's all-locks window).
func (e *Engine) mergeSpillLocked(sh *shard, fresh map[string]*Profile, preserveNewer bool, r HashRange) {
	for uid, ref := range sh.spilled {
		if !r.Contains(userHash(uid)) {
			continue // outside the imported arc: untouched
		}
		if preserveNewer && !ref.seg.quarantined.Load() {
			np, inPayload := fresh[uid]
			if !inPayload {
				continue // spilled-only user: survives a newer-wins import
			}
			if ref.last.After(np.lastReport) {
				// The spill record post-dates the snapshot: the record wins
				// and the payload's stale copy is discarded.
				delete(fresh, uid)
				continue
			}
		}
		delete(sh.spilled, uid)
		ref.seg.dead.Add(1)
	}
}

// decodeState unwraps (and, when the envelope is present, verifies) a
// snapshot and decodes its JSON payload, enforcing the format version.
func decodeState(data []byte) (*persistedState, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("%w: empty state file", ErrCorruptState)
	}
	payload, err := unwrapSnapshot(data)
	if err != nil {
		return nil, err
	}
	var st persistedState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("%w: decode state: %v", ErrCorruptState, err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("%w %d", ErrStateVersion, st.Version)
	}
	return &st, nil
}

// buildImport converts, off-lock, the payload's profiles into per-shard
// profile maps. Every profile must hash into want — a payload profile
// outside the declared range means the file does not match what it claims
// to contain, which is a form of corruption.
func (e *Engine) buildImport(st *persistedState, want HashRange) ([]map[string]*Profile, error) {
	fresh := make([]map[string]*Profile, len(e.shards))
	for i := range fresh {
		fresh[i] = make(map[string]*Profile)
	}
	for i := range st.Profiles {
		pp := &st.Profiles[i]
		if pp.UserID == "" {
			return nil, fmt.Errorf("%w: state has profile without user id", ErrCorruptState)
		}
		if !want.Contains(userHash(pp.UserID)) {
			return nil, fmt.Errorf("%w: profile %q hashes to %08x, outside range %v",
				ErrCorruptState, pp.UserID, userHash(pp.UserID), want)
		}
		fresh[e.shardIndex(pp.UserID)][pp.UserID] = e.profileFromRecord(pp, false)
	}
	return fresh, nil
}

// profileFromRecord converts a persisted profile — a snapshot entry or a
// spill record — into a live profile under the current rule set. It drops
// activations of rules no longer configured and activations that expired
// while persisted. dropBarred (the rehydrate path) also drops activations
// the guard now bars, counting each as a bulk deactivation: their provider
// was quarantined while the user was spilled, out of reach of the trip's
// bulk rollback. The caller indexes the activations under the shard lock.
func (e *Engine) profileFromRecord(pp *persistedProfile, dropBarred bool) *Profile {
	now := e.now()
	byID := *e.rulesByID.Load()
	prof := newProfile(pp.UserID)
	prof.lastReport = pp.LastReport
	for srv, n := range pp.Violations {
		if n > 0 {
			prof.violations[srv] = n
		}
	}
	for _, pa := range pp.Active {
		rule, ok := byID[pa.RuleID]
		if !ok {
			continue // rule removed since the record was written
		}
		if !pa.ExpiresAt.IsZero() && now.After(pa.ExpiresAt) {
			continue // lapsed while persisted
		}
		if dropBarred && e.spillActivationBarred(pa.RuleID, pa.AltIndex) {
			atomic.AddUint64(&e.metrics.BulkDeactivations, 1)
			continue
		}
		prof.active[pa.RuleID] = &ActiveRule{
			Rule:            rule,
			AltIndex:        pa.AltIndex,
			ActivatedAt:     pa.ActivatedAt,
			ExpiresAt:       pa.ExpiresAt,
			TriggerServer:   pa.TriggerServer,
			TriggerDistance: pa.TriggerDistance,
			Activations:     pa.Activations,
			Synthesized:     pa.Synthesized,
		}
		// Arm lazy expiry so a restored TTL'd activation lapses on the
		// serve path just like a live-activated one.
		prof.noteExpiry(pa.ExpiresAt)
	}
	prof.sizeEst = prof.estimateSize()
	return prof
}
