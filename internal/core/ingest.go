package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oak/internal/obs"
	"oak/internal/report"
)

// Batched ingest: an optional bounded queue plus worker pool in front of the
// sharded engine. HTTP handlers (and any other producer) hand reports to the
// queue and the workers drain them shard by shard — each worker owns a fixed
// subset of shards, so a user's reports are always processed by the same
// worker, in submission order, and workers never contend on a shard lock.
// When the queue is full, Submit blocks: backpressure propagates to the
// producer instead of growing memory without bound. WithLoadShedding turns
// that unbounded blocking into a deadline-aware admission policy: a
// submission that would wait on a full queue longer than the configured
// budget is refused with ErrOverloaded instead, so producers (and their
// clients, via 503 + Retry-After) find out immediately and the server keeps
// serving pages while ingest is saturated.

// ErrShuttingDown is returned by report submission after Engine.Close: the
// engine is draining and accepts no new work.
var ErrShuttingDown = errors.New("engine: shutting down")

// ErrEngineClosed is the historical name for ErrShuttingDown; the two are
// the same error value, so errors.Is matches either.
var ErrEngineClosed = ErrShuttingDown

// ErrOverloaded is the sentinel all shed submissions match via errors.Is:
// the ingest queue stayed full past the shedding budget and the report was
// refused, not queued. The concrete error is *OverloadError, which carries
// the retry hint.
var ErrOverloaded = errors.New("engine: overloaded")

// OverloadError is the error a shed submission returns. It unwraps to
// ErrOverloaded and carries the retry hint the origin server turns into a
// Retry-After header.
type OverloadError struct {
	// RetryAfter is how long the shedding policy suggests the client wait
	// before resubmitting.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: overloaded, retry in %v", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// ShedPolicy configures deadline-aware load shedding on the batched-ingest
// pipeline (WithLoadShedding).
type ShedPolicy struct {
	// MaxWait is how long a submission may wait on a full queue before
	// being shed with ErrOverloaded. Zero (or negative) sheds immediately:
	// a full queue refuses new reports without blocking at all.
	MaxWait time.Duration
	// RetryAfter is the retry hint shed submissions carry (and the origin
	// server advertises as Retry-After). Zero takes DefaultRetryAfter.
	RetryAfter time.Duration
}

// DefaultRetryAfter is the retry hint used when ShedPolicy.RetryAfter is
// zero.
const DefaultRetryAfter = time.Second

// normalized fills defaults in.
func (p ShedPolicy) normalized() ShedPolicy {
	if p.MaxWait < 0 {
		p.MaxWait = 0
	}
	if p.RetryAfter <= 0 {
		p.RetryAfter = DefaultRetryAfter
	}
	return p
}

// WithLoadShedding enables overload protection on the batched-ingest
// pipeline: instead of blocking a producer indefinitely while its queue is
// full (the default backpressure behaviour), a submission that cannot be
// queued within p.MaxWait fails fast with an *OverloadError. Sheds are
// counted in Metrics.ReportsShed. The option has no effect on an engine
// without WithIngestPipeline — synchronous ingest never queues, so it never
// sheds.
func WithLoadShedding(p ShedPolicy) Option {
	return func(e *Engine) {
		pol := p.normalized()
		e.shedPolicy = &pol
	}
}

// Default pipeline sizing.
const (
	// DefaultIngestQueueLen is the per-worker queue bound used when
	// IngestConfig.QueueLen is zero.
	DefaultIngestQueueLen = 256
)

// IngestConfig sizes the batched-ingest pipeline.
type IngestConfig struct {
	// Workers is the worker-pool size; 0 means one worker per logical CPU.
	// More workers than shards is never useful and is clamped down.
	Workers int
	// QueueLen bounds each worker's queue; 0 means DefaultIngestQueueLen.
	// Total queued capacity is Workers * QueueLen.
	QueueLen int
}

// normalized fills defaults in.
func (c IngestConfig) normalized(shards int) IngestConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > shards {
		c.Workers = shards
	}
	if c.QueueLen <= 0 {
		c.QueueLen = DefaultIngestQueueLen
	}
	return c
}

// WithIngestPipeline enables the batched-ingest pipeline: HandleReport and
// HandleReportCtx enqueue into a bounded queue drained by a worker pool
// instead of processing on the caller's goroutine. Engines built with this
// option must be Closed to stop the workers.
func WithIngestPipeline(cfg IngestConfig) Option {
	return func(e *Engine) {
		c := cfg
		e.pipelineConfig = &c
	}
}

// ingestOutcome is what processing one queued report produced.
type ingestOutcome struct {
	res *AnalysisResult
	err error
}

// ingestTask is one queued report and the channel its result goes to.
type ingestTask struct {
	ctx context.Context
	rep *report.Report
	res chan ingestOutcome // buffered(1); workers never block sending
}

// pipeline is the running queue + worker pool.
type pipeline struct {
	engine *Engine
	queues []chan ingestTask
	wg     sync.WaitGroup

	// depth counts reports queued or in flight, for the /oak/metrics
	// queue-depth gauge.
	depth    obs.Gauge
	capacity int

	// mu guards closed: submits hold it shared so close cannot shut the
	// queues while a send is in progress.
	mu     sync.RWMutex
	closed bool
}

// newPipeline starts the worker pool.
func newPipeline(e *Engine, cfg IngestConfig) *pipeline {
	cfg = cfg.normalized(len(e.shards))
	p := &pipeline{
		engine:   e,
		queues:   make([]chan ingestTask, cfg.Workers),
		capacity: cfg.Workers * cfg.QueueLen,
	}
	for i := range p.queues {
		p.queues[i] = make(chan ingestTask, cfg.QueueLen)
		p.wg.Add(1)
		go p.worker(p.queues[i])
	}
	return p
}

// submit queues one pre-validated report and waits for its result.
// Cancelling ctx while the report is still queued abandons it (the worker
// discards it un-processed); cancelling after a worker picked it up returns
// immediately while the report still takes effect. With a shedding policy,
// a submission that cannot be queued within the policy's budget is refused
// with *OverloadError instead of blocking.
//
// Pooled-report ownership: a report refused before it reaches a queue
// (pipeline closed, shed, cancelled while enqueueing) is released here; a
// report that made it onto a queue belongs to its worker, which releases it
// on both the drop and the process path — including when this call has
// already returned ctx's error to the submitter.
func (p *pipeline) submit(ctx context.Context, r *report.Report) (*AnalysisResult, error) {
	t := ingestTask{ctx: ctx, rep: r, res: make(chan ingestOutcome, 1)}
	// Shard affinity: one worker owns all reports of a given shard.
	q := p.queues[p.engine.shardIndex(r.UserID)%len(p.queues)]

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		r.Release()
		return nil, ErrShuttingDown
	}
	p.depth.Add(1)
	if err := p.enqueue(ctx, q, t); err != nil {
		p.depth.Add(-1)
		p.mu.RUnlock()
		r.Release()
		return nil, err
	}
	p.mu.RUnlock()

	select {
	case out := <-t.res:
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// enqueue places the task on its worker's queue, honouring the engine's
// shedding policy: without one it blocks until there is room (or ctx is
// cancelled); with one it waits at most the policy's budget on a full queue
// before refusing with *OverloadError. The caller holds p.mu shared.
func (p *pipeline) enqueue(ctx context.Context, q chan ingestTask, t ingestTask) error {
	shed := p.engine.shedPolicy
	if shed == nil {
		select {
		case q <- t:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Fast path: room right now.
	select {
	case q <- t:
		return nil
	default:
	}
	// Queue full. Wait at most the shedding budget before refusing —
	// blocking here would tie up the producer (an HTTP handler goroutine)
	// and lie to the client about progress.
	if shed.MaxWait > 0 {
		timer := time.NewTimer(shed.MaxWait)
		defer timer.Stop()
		select {
		case q <- t:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
	atomic.AddUint64(&p.engine.metrics.ReportsShed, 1)
	return &OverloadError{RetryAfter: shed.RetryAfter}
}

// worker drains one queue until close drains and closes it.
func (p *pipeline) worker(q chan ingestTask) {
	defer p.wg.Done()
	for t := range q {
		if err := t.ctx.Err(); err != nil {
			// Cancelled while queued: the submitter is gone; drop the
			// report without touching any profile.
			t.rep.Release()
			p.depth.Add(-1)
			t.res <- ingestOutcome{err: err}
			continue
		}
		res, err := p.engine.process(t.rep) // process releases t.rep
		p.depth.Add(-1)
		t.res <- ingestOutcome{res: res, err: err}
	}
}

// close stops the pipeline: no new submissions are accepted, queued reports
// are drained, and the workers exit. Idempotent.
func (p *pipeline) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, q := range p.queues {
		close(q)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// QueueStatus describes the batched-ingest queue in Status.
type QueueStatus struct {
	// Depth is how many reports are queued or in flight right now.
	Depth int64 `json:"depth"`
	// Capacity is the total bound across worker queues; submissions block
	// (backpressure) when their worker's queue is full.
	Capacity int `json:"capacity"`
}

// BatchResult summarises one HandleBatch call.
type BatchResult struct {
	// Submitted is how many reports the batch contained.
	Submitted int `json:"submitted"`
	// Processed is how many reports were analysed successfully.
	Processed int `json:"processed"`
	// Failed is how many reports were rejected (validation or processing
	// error, shedding, or cancellation while queued).
	Failed int `json:"failed"`
	// Overloaded is the subset of Failed refused by the load-shedding
	// admission policy; clients should retry those after the advertised
	// Retry-After.
	Overloaded int `json:"overloaded,omitempty"`
	// Errors holds the first few distinct failure messages, as a debugging
	// aid; it is capped, not exhaustive.
	Errors []string `json:"errors,omitempty"`
}

// batchErrorCap bounds BatchResult.Errors.
const batchErrorCap = 8

// BatchSink is a streaming batch ingest: reports are submitted one at a
// time as a producer parses them off the wire, fanned out across shards
// concurrently, and summarised on Wait. It replaces the
// accumulate-the-whole-slice-then-HandleBatch shape — a batch body is never
// fully materialised as []*report.Report.
//
// Usage: s := e.StartBatch(ctx); s.Submit(r)...; res := s.Wait(). Submit
// and Wait must be called from the producer's goroutine (Submit is not safe
// for concurrent use); Submit after Wait panics on the closed channel.
// Submitted pooled reports are owned by the sink/engine and released on
// every path, like HandleReportCtx.
type BatchSink struct {
	engine *Engine
	ctx    context.Context
	next   chan *report.Report
	wg     sync.WaitGroup

	// workers counts spawned submitters; they are started lazily so a
	// one-report batch costs one goroutine, not a full pool.
	workers    int
	maxWorkers int

	mu  sync.Mutex
	res BatchResult
}

// StartBatch begins a streaming batch ingest governed by ctx. Reports may
// be processed in any order; cancelling ctx counts not-yet-processed
// reports as failed.
func (e *Engine) StartBatch(ctx context.Context) *BatchSink {
	max := runtime.GOMAXPROCS(0)
	if e.pipeline != nil {
		// The pipeline workers do the processing; submissions only block on
		// backpressure, so a few more submitters keep the queues fed.
		max = 2 * len(e.pipeline.queues)
	}
	return &BatchSink{
		engine:     e,
		ctx:        ctx,
		next:       make(chan *report.Report),
		maxWorkers: max,
	}
}

// record folds one report's outcome into the result.
func (s *BatchSink) record(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		s.res.Processed++
		return
	}
	s.res.Failed++
	if errors.Is(err, ErrOverloaded) {
		s.res.Overloaded++
	}
	if len(s.res.Errors) < batchErrorCap {
		msg := err.Error()
		for _, prev := range s.res.Errors {
			if prev == msg {
				return
			}
		}
		s.res.Errors = append(s.res.Errors, msg)
	}
}

// Submit hands one report to the sink. It blocks only when every worker is
// busy (backpressure from the engine); after ctx is cancelled it fails the
// report immediately without processing it.
func (s *BatchSink) Submit(r *report.Report) {
	s.mu.Lock()
	s.res.Submitted++
	spawn := s.workers < s.maxWorkers
	if spawn {
		s.workers++
	}
	s.mu.Unlock()
	if spawn {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for r := range s.next {
				_, err := s.engine.HandleReportCtx(s.ctx, r)
				s.record(err)
			}
		}()
	}
	select {
	case s.next <- r:
	case <-s.ctx.Done():
		// Cancelled before any worker took it: it will never be processed.
		r.Release()
		s.record(s.ctx.Err())
	}
}

// Wait closes the sink, waits for in-flight reports, and returns the batch
// summary. The sink must not be used afterwards.
func (s *BatchSink) Wait() BatchResult {
	close(s.next)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res
}

// HandleBatch ingests a pre-materialised batch of reports through a
// BatchSink: fanned out across shards (through the pipeline when one is
// configured, otherwise over a bounded pool of inline workers), processed
// in any order. The call returns when every report has been processed or
// ctx is cancelled; cancellation counts not-yet-processed reports as
// failed. Producers that parse reports off the wire should stream into
// StartBatch directly instead of building the slice.
func (e *Engine) HandleBatch(ctx context.Context, reports []*report.Report) BatchResult {
	s := e.StartBatch(ctx)
	for _, r := range reports {
		s.Submit(r)
	}
	return s.Wait()
}
