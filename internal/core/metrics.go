package core

import "oak/internal/obs"

// Metrics are the engine's aggregate counters — the "aggregate site
// performance" bookkeeping the paper's server maintains alongside per-user
// state. All counters are monotone. The engine stores one Metrics value and
// updates its fields with sync/atomic; Metrics() and Status() copy it.
type Metrics struct {
	// ReportsHandled counts successfully processed performance reports.
	ReportsHandled uint64
	// EntriesProcessed counts object timings across all reports.
	EntriesProcessed uint64
	// ViolationsDetected counts violator flags across all reports.
	ViolationsDetected uint64
	// RuleActivations counts activate + advance transitions.
	RuleActivations uint64
	// RuleDeactivations counts deactivate transitions (history reverts).
	RuleDeactivations uint64
	// RuleExpirations counts TTL lapses observed at report time.
	RuleExpirations uint64
	// PagesModified counts ModifyPage calls that changed the page.
	PagesModified uint64
	// PagesUntouched counts ModifyPage calls that returned the page as-is.
	PagesUntouched uint64
	// ReportsShed counts report submissions refused with ErrOverloaded by
	// the load-shedding admission policy (WithLoadShedding).
	ReportsShed uint64
	// StateRecoveries counts restores from somewhere other than the
	// primary snapshot file: boots (LoadStateFile) that fell back to the
	// rotating backup, and snapshots shipped from another node
	// (ImportShippedState).
	StateRecoveries uint64
	// BreakerTrips counts guard breaker trips (including half-open
	// reopens): a provider crossing into quarantine.
	BreakerTrips uint64
	// BreakerCloses counts breakers closing after successful half-open
	// canaries: a provider re-admitted.
	BreakerCloses uint64
	// ActivationsBlocked counts activations (and advances) the guard
	// refused because the target provider's breaker was not admitting.
	ActivationsBlocked uint64
	// BulkDeactivations counts activations rolled back by breaker trips
	// and rule quarantines (one per activation removed, across all users).
	BulkDeactivations uint64
	// CanaryActivations counts activations admitted through a half-open
	// breaker's canary budget.
	CanaryActivations uint64
	// RewritePanics counts panics recovered on the serve path (compiled
	// applier or per-rule fallback); each one served a safe page instead
	// of failing the request.
	RewritePanics uint64
	// RuleQuarantines counts rules auto-quarantined after repeated
	// rewrite panics.
	RuleQuarantines uint64
	// PopulationTrips counts providers flagged as population-degraded
	// (window quantile vs trailing baseline, plus manual MarkDegraded).
	PopulationTrips uint64
	// PopulationRecoveries counts degraded providers returning to baseline
	// (plus manual ClearDegraded).
	PopulationRecoveries uint64
	// SynthesizedActivations counts rule activations created by
	// population-level synthesis (also included in RuleActivations).
	SynthesizedActivations uint64
	// SynthesisBlocked counts synthesis attempts refused by the guard with
	// no admissible alternative.
	SynthesisBlocked uint64
	// PopulationSamplesDropped counts population samples discarded by the
	// per-shard MaxProviders cap.
	PopulationSamplesDropped uint64
	// ProfileSpills counts profiles evicted from memory to the spill tier's
	// segment files (WithProfileResidency).
	ProfileSpills uint64
	// Rehydrations counts spilled profiles brought back into memory by a
	// report or page request.
	Rehydrations uint64
	// SegmentCompactions counts spill segments rewritten (or removed) by
	// the ingest-driven compactor.
	SegmentCompactions uint64
	// SpillErrors counts spill-tier failures: I/O errors that degraded the
	// store to memory-only mode and segments quarantined for damage.
	SpillErrors uint64
}

// Metrics returns a snapshot of the engine's aggregate counters.
func (e *Engine) Metrics() Metrics {
	return obs.LoadCounters(&e.metrics)
}

// LatencySnapshots are point-in-time copies of the engine's hot-path
// latency histograms.
type LatencySnapshots struct {
	// Ingest is per-report HandleReport latency (grouping through
	// decision-making), merged across all shards.
	Ingest obs.Snapshot
	// IngestShards holds each shard's ingest histogram, indexed by shard.
	// A shard whose latencies stand out from its peers indicates a hot
	// user population (hash skew or a few very busy users).
	IngestShards []obs.Snapshot
	// Rewrite is per-page ModifyPage latency.
	Rewrite obs.Snapshot
	// Rehydrate is per-profile spill-rehydration latency (engines with a
	// profile residency cap; empty otherwise).
	Rehydrate obs.Snapshot
}

// Status is one read of everything the engine reports about itself, the
// source of the operator endpoints. Each optional subsystem's section is
// nil when the engine was built without it.
type Status struct {
	Counters Metrics
	// Shards is how many lock-striped shards partition per-user state.
	Shards    int
	Latencies LatencySnapshots
	// IngestQueue is nil on engines without an ingest pipeline.
	IngestQueue  *QueueStatus
	RewriteCache RewriteCacheStats
	// StateSource says where the engine's state last came from;
	// StateFresh if it never loaded any.
	StateSource StateSource
	// Guard is nil without WithGuard, Population without WithSynthesis,
	// Spill without WithProfileResidency.
	Guard      *GuardStatus
	Population *PopulationStatus
	Spill      *SpillStatus
}

// Status snapshots the engine's counters, latencies and subsystem state.
// It takes no shard lock, so it answers while ingest is wedged.
func (e *Engine) Status() Status {
	st := Status{
		Counters: e.Metrics(),
		Shards:   len(e.shards),
		Latencies: LatencySnapshots{
			IngestShards: make([]obs.Snapshot, len(e.shards)),
			Rewrite:      e.rewriteHist.Snapshot(),
			Rehydrate:    e.rehydrateHist.Snapshot(),
		},
		RewriteCache: e.RewriteCacheStats(),
		StateSource:  StateFresh,
	}
	for i, sh := range e.shards {
		st.Latencies.IngestShards[i] = sh.ingest.Snapshot()
		st.Latencies.Ingest = st.Latencies.Ingest.Merge(st.Latencies.IngestShards[i])
	}
	if p := e.pipeline; p != nil {
		st.IngestQueue = &QueueStatus{Depth: p.depth.Value(), Capacity: p.capacity}
	}
	if src, _ := e.stateSource.Load().(StateSource); src != "" {
		st.StateSource = src
	}
	st.Guard = e.guardStatus(&st.Counters)
	st.Population = e.populationStatus(&st.Counters)
	st.Spill = e.spillStatus(&st.Counters, st.Latencies.Rehydrate)
	return st
}
