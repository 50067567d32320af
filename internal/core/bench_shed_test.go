package core

import (
	"errors"
	"testing"
	"time"

	"oak/internal/rules"
)

// Shed benchmarks. No perfbench workload sheds (shedding is off in oakd's
// defaults), so these are the only measurement of admission control.
//
// Two questions matter for the overload-protection design:
//
//  1. What does admission control cost when the server is NOT overloaded?
//     BenchmarkPipelineSheddingOff vs BenchmarkPipelineSheddingOn run the
//     same parallel ingest load with and without a ShedPolicy; the
//     reports/sec ratio is the happy-path toll (it should be ~1.0 — the
//     fast path is a single non-blocking channel send either way).
//
//  2. What does overload cost once it happens? BenchmarkShedSaturated
//     wedges the one pipeline worker and fills the queue, so every
//     HandleReport is refused. Its ns/op is the full price of saying no —
//     with shedding, an overloaded submitter is turned away in
//     microseconds with a truthful Retry-After, where the blocking design
//     parks it for an unbounded wait.

// BenchmarkPipelineSheddingOff is the baseline: pipeline ingest with
// blocking backpressure (no ShedPolicy), parallel submitters.
func BenchmarkPipelineSheddingOff(b *testing.B) {
	benchParallel(b, benchEngine(b, WithIngestPipeline(IngestConfig{})))
}

// BenchmarkPipelineSheddingOn is the same load with deadline-aware
// admission enabled. The queue is sized so nothing sheds; any refusal
// fails the benchmark, so the number isolates pure policy overhead.
func BenchmarkPipelineSheddingOn(b *testing.B) {
	benchParallel(b, benchEngine(b,
		WithIngestPipeline(IngestConfig{}),
		WithLoadShedding(ShedPolicy{MaxWait: time.Second}),
	))
}

// BenchmarkShedSaturated measures the overload path itself: a wedged
// worker, a full queue and MaxWait zero mean every HandleReport sheds.
func BenchmarkShedSaturated(b *testing.B) {
	entered := make(chan struct{})
	release := make(chan struct{})
	fetcher := ScriptFetcherFunc(func(string) (string, error) {
		close(entered)
		<-release
		return "", nil
	})
	e, err := NewEngine([]*rules.Rule{loaderRule()},
		WithScriptFetcher(fetcher),
		WithIngestPipeline(IngestConfig{Workers: 1, QueueLen: 1}),
		WithLoadShedding(ShedPolicy{MaxWait: 0}),
	)
	if err != nil {
		b.Fatal(err)
	}
	// Wedge the worker inside a tier-3 script fetch, then fill the one
	// queue slot behind it. Both submissions block until release.
	go func() { _, _ = e.HandleReport(tier3Report("bench-wedged")) }()
	<-entered
	go func() { _, _ = e.HandleReport(tier3Report("bench-filler")) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if depth := e.Status().IngestQueue.Depth; depth == 2 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("queue never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	b.Cleanup(func() {
		close(release)
		e.Close()
	})

	rep := slowS1Report("bench-shed")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HandleReport(rep); !errors.Is(err, ErrOverloaded) {
			b.Fatalf("want ErrOverloaded, got %v", err)
		}
	}
	b.StopTimer()
	if got := e.Metrics().ReportsShed; got < uint64(b.N) {
		b.Fatalf("ReportsShed = %d, want >= %d", got, b.N)
	}
	reportShedRate(b)
}

// reportShedRate derives sheds/sec from the measured loop.
func reportShedRate(b *testing.B) {
	if b.N == 0 || b.Elapsed() == 0 {
		return
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sheds/sec")
}
