package origin

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"oak/internal/core"
	"oak/internal/obs"
)

// Operator observability endpoints. Like AuditPath, these are
// operator-facing: restrict access to them in deployments.
const (
	// MetricsPath serves the engine's aggregate counters and latency
	// histograms as JSON.
	MetricsPath = "/oak/metrics"
	// HealthzPath serves a liveness summary (uptime, rule/user counts).
	HealthzPath = "/oak/healthz"
	// TracePath serves the most recent decision-trace events as JSON;
	// ?n=100 bounds the window (default 100).
	TracePath = "/oak/trace"
	// PopulationPath serves the population-detection state (degraded
	// providers, per-provider baselines, synthesis counters); 404 on
	// engines built without WithSynthesis.
	PopulationPath = "/oak/population"
)

// Versioned aliases of the operator endpoints (see V1Prefix in server.go).
const (
	MetricsPathV1    = V1Prefix + "/metrics"
	HealthzPathV1    = V1Prefix + "/healthz"
	TracePathV1      = V1Prefix + "/trace"
	PopulationPathV1 = V1Prefix + "/population"
)

// defaultTraceWindow is how many events GET /oak/trace returns when the
// request does not say.
const defaultTraceWindow = 100

// MetricsResponse is the GET /oak/metrics body.
type MetricsResponse struct {
	// Counters are the engine's monotone aggregate counters.
	Counters core.Metrics `json:"counters"`
	// Ingest and Rewrite summarise the hot-path latency histograms in
	// millisecond percentiles. Ingest merges all shards.
	Ingest  obs.Summary `json:"ingest"`
	Rewrite obs.Summary `json:"rewrite"`
	// IngestBuckets and RewriteBuckets are the raw populated histogram
	// buckets, for operators who want more than percentiles.
	IngestBuckets  []obs.Bucket `json:"ingest_buckets,omitempty"`
	RewriteBuckets []obs.Bucket `json:"rewrite_buckets,omitempty"`
	// Shards is how many lock-striped shards partition per-user state.
	Shards int `json:"shards"`
	// IngestShards summarises each shard's ingest histogram (indexed by
	// shard); shards that have ingested nothing are omitted. A shard whose
	// latencies stand out indicates a hot user population.
	IngestShards []ShardSummary `json:"ingest_shards,omitempty"`
	// IngestQueue describes the batched-ingest queue; absent when the
	// engine runs without a pipeline.
	IngestQueue *core.QueueStatus `json:"ingest_queue,omitempty"`
	// PagesDegraded counts page deliveries served unmodified because the
	// per-user rewrite did not finish within the rewrite budget.
	PagesDegraded uint64 `json:"pages_degraded"`
	// Rewrite-cache counters (all zero when the cache is disabled; see
	// core.WithRewriteCache). Bytes approximates resident cache memory.
	RewriteCacheHits      uint64 `json:"rewrite_cache_hits"`
	RewriteCacheMisses    uint64 `json:"rewrite_cache_misses"`
	RewriteCacheEvictions uint64 `json:"rewrite_cache_evictions"`
	RewriteCacheBytes     int64  `json:"rewrite_cache_bytes"`
	RewriteCacheEntries   int    `json:"rewrite_cache_entries"`
	// Guard is the circuit-breaker state (breakers, quarantined providers
	// and rules, canary counts); absent on engines built without WithGuard.
	Guard *core.GuardStatus `json:"guard,omitempty"`
	// Population is the population-detection state (degraded providers,
	// per-provider baselines, synthesis counters); absent on engines built
	// without WithSynthesis.
	Population *core.PopulationStatus `json:"population,omitempty"`
	// Spill is the profile spill tier's state (residency counts, segment
	// footprint, rehydration latency); absent on engines built without
	// core.WithProfileResidency.
	Spill *core.SpillStatus `json:"spill,omitempty"`
}

// ShardSummary is one shard's ingest latency digest.
type ShardSummary struct {
	Shard   int         `json:"shard"`
	Summary obs.Summary `json:"summary"`
}

// HealthzResponse is the GET /oak/healthz body.
type HealthzResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Rules         int     `json:"rules"`
	Users         int     `json:"users"`
	Reports       uint64  `json:"reports"`
	// OpenBreakers lists alternate providers currently quarantined by an
	// open guard breaker (omitted when none, or without WithGuard).
	OpenBreakers []string `json:"open_breakers,omitempty"`
	// DegradedProviders lists providers the population detector currently
	// flags (omitted when none, or without WithSynthesis).
	DegradedProviders []string `json:"degraded_providers,omitempty"`
	// StateSource says where the engine's state came from: "fresh",
	// "snapshot", "backup" (recovered from the rotating .bak), or
	// "shipped" (rehydrated from a snapshot shipped by another node).
	StateSource string `json:"state_source"`
	// StateRecoveries counts restores from somewhere other than the
	// primary snapshot file — backup fallbacks and shipped rehydrations.
	StateRecoveries uint64 `json:"state_recoveries"`
	// SpillDegraded is true when the profile spill tier is operating
	// impaired: a spill I/O failure latched memory-only mode, or a damaged
	// segment was quarantined. The process keeps serving either way; the
	// flag (and the "degraded" status it forces) tells operators resident
	// memory is no longer bounded or spilled profiles were set aside.
	// Omitted on engines without a residency cap.
	SpillDegraded bool `json:"spill_degraded,omitempty"`
	// SpillMemoryOnly narrows SpillDegraded: true when evictions have
	// stopped and the engine runs memory-only.
	SpillMemoryOnly bool `json:"spill_memory_only,omitempty"`
	// QuarantinedSegments counts spill segment files set aside after
	// codec-level damage.
	QuarantinedSegments int `json:"quarantined_segments,omitempty"`
}

// handleMetrics serves counters plus ingest/rewrite histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	st := s.engine.Status()
	lat := st.Latencies
	resp := MetricsResponse{
		Counters:              st.Counters,
		Ingest:                lat.Ingest.Summary(),
		Rewrite:               lat.Rewrite.Summary(),
		IngestBuckets:         lat.Ingest.Buckets,
		RewriteBuckets:        lat.Rewrite.Buckets,
		Shards:                st.Shards,
		IngestQueue:           st.IngestQueue,
		PagesDegraded:         s.pagesDegraded.Value(),
		RewriteCacheHits:      st.RewriteCache.Hits,
		RewriteCacheMisses:    st.RewriteCache.Misses,
		RewriteCacheEvictions: st.RewriteCache.Evictions,
		RewriteCacheBytes:     st.RewriteCache.Bytes,
		RewriteCacheEntries:   st.RewriteCache.Entries,
		Guard:                 st.Guard,
		Population:            st.Population,
		Spill:                 st.Spill,
	}
	for i, snap := range lat.IngestShards {
		if snap.Count > 0 {
			resp.IngestShards = append(resp.IngestShards, ShardSummary{Shard: i, Summary: snap.Summary()})
		}
	}
	WriteJSON(w, resp)
}

// handlePopulation serves the population layer's full state. Engines built
// without WithSynthesis answer 404: the endpoint does not exist for them,
// exactly like the guard section is absent from guardless metrics.
func (s *Server) handlePopulation(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	ps := s.engine.Status().Population
	if ps == nil {
		http.Error(w, "population detection not enabled", http.StatusNotFound)
		return
	}
	WriteJSON(w, ps)
}

// handleHealthz serves the liveness summary. The status is "degraded" —
// still HTTP 200, the process is alive — while the ingest queue is
// saturated or the spill tier is impaired, so load balancers polling
// healthz see trouble before clients start receiving 503s.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	st := s.engine.Status()
	resp := HealthzResponse{
		Status:          "ok",
		UptimeSeconds:   time.Since(s.started).Seconds(),
		Rules:           len(s.engine.Rules()),
		Users:           s.engine.Users(),
		Reports:         st.Counters.ReportsHandled,
		StateSource:     string(st.StateSource),
		StateRecoveries: st.Counters.StateRecoveries,
	}
	if q := st.IngestQueue; q != nil && q.Depth >= int64(q.Capacity) {
		resp.Status = "degraded"
	}
	if st.Guard != nil {
		resp.OpenBreakers = st.Guard.Quarantines
	}
	if st.Population != nil {
		for _, d := range st.Population.Degraded {
			resp.DegradedProviders = append(resp.DegradedProviders, d.Provider)
		}
	}
	if sp := st.Spill; sp != nil {
		resp.SpillMemoryOnly = sp.MemoryOnly
		resp.QuarantinedSegments = len(sp.QuarantinedSegments)
		resp.SpillDegraded = sp.Degraded()
		if resp.SpillDegraded {
			resp.Status = "degraded"
		}
	}
	WriteJSON(w, resp)
}

// handleTrace serves the last n decision-trace events.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	n := defaultTraceWindow
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	evs := s.engine.TraceRecent(n)
	if evs == nil {
		evs = []obs.Event{} // serve [] rather than null
	}
	WriteJSON(w, evs)
}

// getOnly rejects non-GET methods.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// WriteJSON encodes v as indented JSON, the encoding of every operator
// endpoint (the cluster gateway's included).
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
