package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"oak/internal/report"
	"oak/internal/rules"
)

func pipelineEngine(t *testing.T, workers, queueLen int, opts ...Option) *Engine {
	t.Helper()
	opts = append(opts, WithIngestPipeline(IngestConfig{Workers: workers, QueueLen: queueLen}))
	e, err := NewEngine([]*rules.Rule{jqRule(0)}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestPipelineProcessesReports(t *testing.T) {
	e := pipelineEngine(t, 2, 16)
	for i := 0; i < 20; i++ {
		res, err := e.HandleReport(slowS1Report(fmt.Sprintf("u%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Changes) != 1 || res.Changes[0].Action != "activate" {
			t.Fatalf("changes = %+v, want one activation", res.Changes)
		}
	}
	if got := e.Users(); got != 20 {
		t.Errorf("Users() = %d, want 20", got)
	}
	if q := e.Status().IngestQueue; q == nil || q.Depth != 0 || q.Capacity == 0 {
		t.Errorf("queue = %+v, want drained queue with capacity", q)
	}
}

func TestPipelineRejectsInvalidReport(t *testing.T) {
	e := pipelineEngine(t, 1, 4)
	if _, err := e.HandleReport(&report.Report{UserID: "", Page: "/"}); !errors.Is(err, report.ErrNoUserID) {
		t.Errorf("err = %v, want ErrNoUserID", err)
	}
}

func TestPipelineClosedEngineRejects(t *testing.T) {
	e := pipelineEngine(t, 1, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := e.HandleReport(slowS1Report("late")); !errors.Is(err, ErrEngineClosed) {
		t.Errorf("err = %v, want ErrEngineClosed", err)
	}
}

// TestPipelineCancelWhileQueued wedges the single worker (via a blocking
// logf sink), fills the one-slot queue behind it, and checks that (a) a
// submission with no queue space honours ctx cancellation, and (b) a queued
// report whose ctx is cancelled is dropped un-processed.
func TestPipelineCancelWhileQueued(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	blockingLogf := func(string, ...any) { <-release }
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()

	e := pipelineEngine(t, 1, 1, WithLogf(blockingLogf))

	type outcome struct {
		res *AnalysisResult
		err error
	}
	submit := func(ctx context.Context, user string) chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			res, err := e.HandleReportCtx(ctx, slowS1Report(user))
			ch <- outcome{res, err}
		}()
		return ch
	}

	// A occupies the worker (blocked in logf under the shard lock).
	aCh := submit(context.Background(), "a")
	waitForDepth := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if d := e.Status().IngestQueue.Depth; d >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue depth never reached %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitForDepth(1)

	// B sits in the queue.
	bCtx, bCancel := context.WithCancel(context.Background())
	bCh := submit(bCtx, "b")
	waitForDepth(2)

	// C cannot even enqueue (queue full): cancelling its ctx must unblock
	// the submission.
	cCtx, cCancel := context.WithCancel(context.Background())
	cCh := submit(cCtx, "c")
	waitForDepth(3)
	cCancel()
	if out := <-cCh; !errors.Is(out.err, context.Canceled) {
		t.Errorf("c err = %v, want context.Canceled", out.err)
	}

	// Cancel B while it is queued, then release the worker: B must be
	// dropped without touching its profile.
	bCancel()
	unblock()
	if out := <-bCh; !errors.Is(out.err, context.Canceled) {
		t.Errorf("b err = %v, want context.Canceled", out.err)
	}
	if out := <-aCh; out.err != nil || len(out.res.Changes) != 1 {
		t.Errorf("a outcome = %+v, %v; want one activation", out.res, out.err)
	}

	e.Close() // drain before asserting state
	if _, ok := e.Snapshot("b"); ok {
		t.Error("cancelled-while-queued report mutated the profile")
	}
	if _, ok := e.Snapshot("a"); !ok {
		t.Error("processed report left no profile")
	}
}

func TestHandleBatchWithoutPipeline(t *testing.T) {
	e, err := NewEngine([]*rules.Rule{jqRule(0)})
	if err != nil {
		t.Fatal(err)
	}
	var reports []*report.Report
	for i := 0; i < 30; i++ {
		reports = append(reports, slowS1Report(fmt.Sprintf("u%d", i)))
	}
	reports = append(reports, &report.Report{UserID: "", Page: "/"}) // invalid
	res := e.HandleBatch(context.Background(), reports)
	if res.Submitted != 31 || res.Processed != 30 || res.Failed != 1 {
		t.Fatalf("batch result = %+v", res)
	}
	if len(res.Errors) != 1 {
		t.Errorf("errors = %v, want the one validation message", res.Errors)
	}
	if got := e.Users(); got != 30 {
		t.Errorf("Users() = %d, want 30", got)
	}
}

func TestHandleBatchThroughPipeline(t *testing.T) {
	e := pipelineEngine(t, 4, 8)
	var reports []*report.Report
	for i := 0; i < 100; i++ {
		reports = append(reports, slowS1Report(fmt.Sprintf("u%d", i)))
	}
	res := e.HandleBatch(context.Background(), reports)
	if res.Processed != 100 || res.Failed != 0 {
		t.Fatalf("batch result = %+v", res)
	}
	if got := e.Users(); got != 100 {
		t.Errorf("Users() = %d, want 100", got)
	}
}

func TestHandleBatchEmpty(t *testing.T) {
	e, err := NewEngine(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := e.HandleBatch(context.Background(), nil)
	if res.Submitted != 0 || res.Processed != 0 || res.Failed != 0 {
		t.Errorf("empty batch result = %+v", res)
	}
}

// TestBatchedIngestRace hammers the pipeline from many goroutines while
// ExportState, SetRules, Audit and Users run concurrently — the guard for
// the sharded engine's lock discipline under `go test -race`.
func TestBatchedIngestRace(t *testing.T) {
	e := pipelineEngine(t, 4, 32)

	const (
		writers          = 4
		reportsPerWriter = 50
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var batch []*report.Report
			for i := 0; i < reportsPerWriter; i++ {
				batch = append(batch, slowS1Report(fmt.Sprintf("w%d-u%d", w, i)))
			}
			res := e.HandleBatch(context.Background(), batch)
			if res.Failed != 0 {
				t.Errorf("writer %d: %d failed: %v", w, res.Failed, res.Errors)
			}
		}(w)
	}

	// Readers and rule-churners run until the writers finish.
	churn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	churn(func() {
		if _, err := e.ExportState(); err != nil {
			t.Error(err)
		}
	})
	churn(func() {
		if err := e.SetRules([]*rules.Rule{jqRule(0)}); err != nil {
			t.Error(err)
		}
	})
	churn(func() {
		e.Audit()
		e.Users()
		e.Status()
	})

	done := make(chan struct{})
	go func() {
		// Wait for the writers only, then stop the churners.
		defer close(done)
		for {
			if e.Metrics().ReportsHandled >= writers*reportsPerWriter {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	close(stop)
	wg.Wait()

	if got := e.Users(); got != writers*reportsPerWriter {
		t.Errorf("Users() = %d, want %d", got, writers*reportsPerWriter)
	}
}

// tier3Report builds a report whose violator (evil.example) can only be tied
// to loaderRule through the external-JavaScript tier — processing it makes
// the engine call the script fetcher, which tests use to block a pipeline
// worker deterministically.
func tier3Report(user string) *report.Report {
	return &report.Report{UserID: user, Page: "/index.html", Entries: []report.Entry{
		{URL: "http://lib.example/loader.js", ServerAddr: "ip-lib.example", SizeBytes: 1024, DurationMillis: 95, Kind: report.KindScript},
		{URL: "http://evil.example/pixel.png", ServerAddr: "ip-evil.example", SizeBytes: 1024, DurationMillis: 2000, Kind: report.KindImage},
		{URL: "http://a.example/a.png", ServerAddr: "ip-a.example", SizeBytes: 1024, DurationMillis: 100, Kind: report.KindImage},
		{URL: "http://b.example/b.png", ServerAddr: "ip-b.example", SizeBytes: 1024, DurationMillis: 110, Kind: report.KindImage},
	}}
}

// loaderRule references lib.example's loader script but not evil.example, so
// matching evil.example requires fetching the script body.
func loaderRule() *rules.Rule {
	return &rules.Rule{
		ID:      "loader",
		Type:    rules.TypeRemove,
		Default: `<script src="http://lib.example/loader.js"></script>`,
		Scope:   "*",
	}
}

func TestLoadSheddingShedsWhenSaturated(t *testing.T) {
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
		WithLoadShedding(ShedPolicy{MaxWait: 5 * time.Millisecond, RetryAfter: 2 * time.Second}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	done := make(chan error, 2)
	// Report 1: the worker picks it up and blocks inside the fetcher.
	go func() {
		_, err := e.HandleReport(tier3Report("u-block"))
		done <- err
	}()
	<-entered
	// Report 2: fills the queue (capacity 1) behind the stuck worker.
	go func() {
		_, err := e.HandleReport(slowS1Report("u-queued"))
		done <- err
	}()
	waitFor(t, func() bool { depth := e.Status().IngestQueue.Depth; return depth == 2 })

	// Report 3: nowhere to go — must be shed, not block.
	_, err = e.HandleReport(slowS1Report("u-shed"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated submit err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != 2*time.Second {
		t.Errorf("overload error = %#v, want RetryAfter 2s", err)
	}
	if got := e.Metrics().ReportsShed; got != 1 {
		t.Errorf("ReportsShed = %d, want 1", got)
	}

	// Unblocking the worker drains the queue; nothing was lost or wedged.
	released = true
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("queued report %d failed: %v", i, err)
		}
	}
	e.Close()
	if e.Users() != 2 {
		t.Errorf("Users = %d, want 2 (shed report not processed)", e.Users())
	}
}

func TestLoadSheddingZeroWaitShedsImmediately(t *testing.T) {
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
		WithLoadShedding(ShedPolicy{}), // MaxWait 0: no grace at all
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	defer close(release)

	done := make(chan error, 2)
	go func() {
		_, err := e.HandleReport(tier3Report("u-block"))
		done <- err
	}()
	<-entered
	go func() {
		_, err := e.HandleReport(slowS1Report("u-queued"))
		done <- err
	}()
	waitFor(t, func() bool { depth := e.Status().IngestQueue.Depth; return depth == 2 })

	start := time.Now()
	_, err = e.HandleReport(slowS1Report("u-shed"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter != DefaultRetryAfter {
		t.Errorf("RetryAfter = %#v, want default %v", err, DefaultRetryAfter)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("immediate shed took %v", elapsed)
	}
}

func TestNoSheddingBlocksInsteadOfRefusing(t *testing.T) {
	// Without WithLoadShedding a saturated queue applies backpressure: the
	// submission waits and eventually succeeds once the worker frees up.
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
	)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	done := make(chan error, 3)
	go func() {
		_, err := e.HandleReport(tier3Report("u-block"))
		done <- err
	}()
	<-entered
	for _, u := range []string{"u2", "u3"} {
		u := u
		go func() {
			_, err := e.HandleReport(slowS1Report(u))
			done <- err
		}()
	}
	waitFor(t, func() bool { depth := e.Status().IngestQueue.Depth; return depth >= 2 })
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Errorf("backpressured report %d failed: %v", i, err)
		}
	}
	if e.Metrics().ReportsShed != 0 {
		t.Errorf("ReportsShed = %d without a shed policy", e.Metrics().ReportsShed)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
