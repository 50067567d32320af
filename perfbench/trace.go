package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"oak"
	"oak/internal/report"
	"oak/internal/rules"
)

// span is one timed call into a layer: the benchmark records it around the
// public call, so per-layer costs are measured from outside the program.
type span struct {
	Rung   string `json:"rung"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for an op's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. When off it records
// nothing and start/end cost nothing.
type tracer struct {
	on    bool
	rung  string
	t0    time.Time
	spans []span
}

func (t *tracer) start(op int, name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Rung: t.rung, Op: op, Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
	}
}

func (t *tracer) dur(i int) time.Duration {
	if i < 0 {
		return 0
	}
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ingestRatioOps is how many ingest-stream ops the guard and synthesis
// ratios replay.
const ingestRatioOps = 5000

// Op kinds a rung accounts separately.
const (
	kindJSON = iota
	kindBinary
	kindPage
	nKinds
)

func kindOf(op *Op) int {
	switch {
	case op.Page:
		return kindPage
	case op.Binary:
		return kindBinary
	}
	return kindJSON
}

// rungStats is one rung's replay of the op stream.
type rungStats struct {
	n       [nKinds]int
	total   [nKinds]time.Duration // root-span time by kind
	allocs  [nKinds]uint64        // per-op heap allocations (allocation passes only)
	wall    time.Duration
	mallocs uint64
	failed  int
}

// usPer is the mean root-span time of the given kinds, in µs.
func (s *rungStats) usPer(kinds ...int) float64 {
	var t time.Duration
	var n int
	for _, k := range kinds {
		t += s.total[k]
		n += s.n[k]
	}
	if n == 0 {
		return 0
	}
	return float64(t) / float64(n) / 1e3
}

func (s *rungStats) allocsPer(kinds ...int) float64 {
	var a uint64
	var n int
	for _, k := range kinds {
		a += s.allocs[k]
		n += s.n[k]
	}
	if n == 0 {
		return 0
	}
	return float64(a) / float64(n)
}

func (s *rungStats) ops() int { return s.n[kindJSON] + s.n[kindBinary] + s.n[kindPage] }

// replay runs ops through one rung. do performs op i inside the root span;
// with allocs set, each op's heap allocations are counted instead (a pass
// whose timings are not used, since reading the counters stops the world).
func replay(tr *tracer, name string, ops []*Op, allocs bool, do func(i int, op *Op, root int) bool) rungStats {
	var st rungStats
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	tr.rung = name
	t0 := time.Now()
	for i, op := range ops {
		k := kindOf(op)
		var before uint64
		if allocs {
			runtime.ReadMemStats(&ms)
			before = ms.Mallocs
		}
		root := tr.start(i, name, -1)
		ok := do(i, op, root)
		tr.end(root)
		if allocs {
			runtime.ReadMemStats(&ms)
			st.allocs[k] += ms.Mallocs - before
		}
		st.n[k]++
		st.total[k] += tr.dur(root)
		if !ok {
			st.failed++
		}
	}
	st.wall = time.Since(t0)
	runtime.ReadMemStats(&ms)
	st.mallocs = ms.Mallocs - m0
	return st
}

// decodeOp decodes a report op's body the way the origin handler does.
func decodeOp(op *Op) (*report.Report, error) {
	if op.Binary {
		return report.DecodeBinaryPooled(op.Body)
	}
	return report.DecodePooled(op.Body)
}

// ladder replays one workload's op stream through the layers' public
// entry points, one rung per layer, each on a fresh system built with the
// options the workload's flags give oakd.
type ladder struct {
	f       *Fixture
	setup   []*report.Report
	root    string // page directory
	scratch string
	notes   []string
}

// variant is an engine configuration: the workload's, with or without the
// guard, plus extra options.
type variant struct {
	guard bool
	extra []oak.EngineOption
}

var asOakd = variant{guard: true}

// newEngine builds a fresh engine in the workload's starting state for the
// users owns accepts.
func (l *ladder) newEngine(v variant, owns func(string) bool) (*oak.Engine, error) {
	dir, err := os.MkdirTemp(l.scratch, "spill-")
	if err != nil {
		return nil, err
	}
	eng, err := oak.NewEngine(l.f.Rules, append(engineOptions(l.f.W, dir, v.guard), v.extra...)...)
	if err != nil {
		return nil, err
	}
	if err := l.prime(eng, owns); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// prime feeds the setup reports of the users owns accepts, and warms the
// rewrite cache for workloads that start warm.
func (l *ladder) prime(eng *oak.Engine, owns func(uid string) bool) error {
	for _, r := range l.setup {
		if !owns(r.UserID) {
			continue
		}
		if _, err := eng.HandleReport(r); err != nil {
			return fmt.Errorf("prime: %w", err)
		}
	}
	if l.f.W.WarmPages {
		for u := 0; u < l.f.W.Users; u++ {
			uid := UserID(u)
			if !owns(uid) {
				continue
			}
			for _, p := range l.f.sitePages(l.f.home[u]) {
				eng.RewritePage(uid, p, l.f.Pages[p])
			}
		}
	}
	return nil
}

// coreRung is rung 2: decode then Engine.HandleReport for reports;
// RewriteCached, then RewritePage on a miss, for pages. Hit times count
// only rewrite-cache hits, not pages served untouched to users without
// activations.
type coreRung struct {
	hits, misses, spilled  int
	hitT, missT, spilledT  time.Duration
	applies                int
	applyT                 time.Duration
	m0, m1                 oak.EngineMetrics
	c0, c1                 oak.RewriteCacheStats
	s0, s1                 oak.SpillStatus
	residentPerUser        float64
	spillBytesPerUser      float64
	residentBytesEstimated bool
}

func (l *ladder) runCore(tr *tracer, ops []*Op, allocs bool) (rungStats, *coreRung, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	eng, err := l.newEngine(asOakd, all)
	if err != nil {
		return rungStats{}, nil, err
	}
	defer eng.Close()
	c := &coreRung{m0: eng.Metrics(), c0: eng.RewriteCacheStats()}
	c.s0, _ = eng.SpillStatus()
	st := replay(tr, "core", ops, allocs, func(i int, op *Op, root int) bool {
		if !op.Page {
			s := tr.start(i, "report.decode", root)
			rep, err := decodeOp(op)
			tr.end(s)
			if err != nil {
				return false
			}
			s = tr.start(i, "core.ingest", root)
			_, err = eng.HandleReport(rep)
			tr.end(s)
			return err == nil
		}
		uid, html := UserID(op.User), l.f.Pages[op.Path]
		s := tr.start(i, "core.rewrite_cached", root)
		rw, ok := eng.RewriteCached(uid, op.Path, html)
		tr.end(s)
		if rw.CacheHit {
			c.hits++
			c.hitT += tr.dur(s)
		} else if !ok {
			s = tr.start(i, "core.rewrite_page", root)
			rw = eng.RewritePage(uid, op.Path, html)
			tr.end(s)
			c.misses++
			c.missT += tr.dur(s)
		}
		return pageDigest([]byte(rw.HTML), rw.Hint) == op.Want
	})
	c.m1, c.c1 = eng.Metrics(), eng.RewriteCacheStats()
	c.s1, _ = eng.SpillStatus()
	if !allocs {
		l.spillProbes(tr, eng, c, ops)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if sp, ok := eng.SpillStatus(); ok && sp.ProfilesResident > 0 {
			c.residentPerUser = float64(sp.ResidentBytes) / float64(sp.ProfilesResident)
			if sp.ProfilesSpilled > 0 {
				c.spillBytesPerUser = float64(sp.SpillBytes) / float64(sp.ProfilesSpilled)
			}
		} else if u := eng.Users(); u > 0 {
			c.residentBytesEstimated = true
			c.residentPerUser = (float64(ms.HeapAlloc) - float64(heap0) - float64(c.c1.Bytes)) / float64(u)
		}
	}
	return st, c, nil
}

// spillProbes times, outside the rung, the two serve-path pieces the rung
// cannot isolate: the rule applier on each page op's live activations, and
// RewritePage for users whose profile is spilled at the time of the call.
func (l *ladder) spillProbes(tr *tracer, eng *oak.Engine, c *coreRung, ops []*Op) {
	tr.rung = "probe"
	for i, op := range ops {
		if !op.Page {
			continue
		}
		uid, html := UserID(op.User), l.f.Pages[op.Path]
		if eng.Residency(uid) == "spilled" {
			s := tr.start(i, "core.spilled_serve", -1)
			eng.RewritePage(uid, op.Path, html)
			tr.end(s)
			c.spilled++
			c.spilledT += tr.dur(s)
		}
		acts := eng.ActiveRules(uid, op.Path)
		if len(acts) == 0 {
			continue
		}
		s := tr.start(i, "rules.apply", -1)
		rules.NewApplier(acts, op.Path).Apply(html)
		tr.end(s)
		c.applies++
		c.applyT += tr.dur(s)
	}
}

// prebuilt makes one request per op ahead of a rung, so building them is
// not timed.
func prebuilt(base string, ops []*Op) ([]*http.Request, error) {
	reqs := make([]*http.Request, len(ops))
	for i, op := range ops {
		r, err := opRequest(base, op)
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}

// newServer builds a fresh origin server over a fresh engine.
func (l *ladder) newServer(owns func(string) bool) (*oak.Server, error) {
	eng, err := l.newEngine(asOakd, owns)
	if err != nil {
		return nil, err
	}
	srv := oak.NewServer(eng)
	if _, err := srv.LoadPages(os.DirFS(l.root)); err != nil {
		eng.Close()
		return nil, err
	}
	return srv, nil
}

func all(string) bool { return true }

// runOrigin is rung 3: origin.Server.ServeHTTP through a recorder.
func (l *ladder) runOrigin(tr *tracer, ops []*Op) (rungStats, error) {
	srv, err := l.newServer(all)
	if err != nil {
		return rungStats{}, err
	}
	defer srv.Engine().Close()
	reqs, err := prebuilt("http://oak.test", ops)
	if err != nil {
		return rungStats{}, err
	}
	return replay(tr, "origin", ops, false, func(i int, op *Op, root int) bool {
		rec := httptest.NewRecorder()
		s := tr.start(i, "origin.serve", root)
		srv.ServeHTTP(rec, reqs[i])
		tr.end(s)
		return checkResponse(op, rec.Code, rec.Body.Bytes(), rec.Header().Get(rules.CacheHintHeader)) == ""
	}), nil
}

// loopback serves h on a loopback listener and counts the connections it
// accepts.
type loopback struct {
	URL   string
	srv   *http.Server
	conns atomic.Int64
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{URL: "http://" + ln.Addr().String()}
	lb.srv = &http.Server{Handler: h, ConnState: func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			lb.conns.Add(1)
		}
	}}
	go func() { _ = lb.srv.Serve(ln) }()
	return lb, nil
}

// runHTTP is rung 4: the same requests over loopback HTTP to a fresh
// server, through one kept-alive connection of the benchmark's own
// counting dialer.
func (l *ladder) runHTTP(tr *tracer, ops []*Op) (rungStats, int64, error) {
	srv, err := l.newServer(all)
	if err != nil {
		return rungStats{}, 0, err
	}
	defer srv.Engine().Close()
	lb, err := serveLoopback(srv)
	if err != nil {
		return rungStats{}, 0, err
	}
	defer lb.srv.Close()
	var dc DialCounter
	client := newClient(&dc)
	defer client.CloseIdleConnections()
	reqs, err := prebuilt(lb.URL, ops)
	if err != nil {
		return rungStats{}, 0, err
	}
	st := replay(tr, "http", ops, false, func(i int, op *Op, root int) bool {
		s := tr.start(i, "http.roundtrip", root)
		resp, err := client.Do(reqs[i])
		if err != nil {
			tr.end(s)
			return false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		tr.end(s)
		return err == nil && checkResponse(op, resp.StatusCode, body, resp.Header.Get(rules.CacheHintHeader)) == ""
	})
	return st, lb.conns.Load(), nil
}

// runGateway is rung 5: the same requests through Gateway.ServeHTTP over
// two in-process loopback backends, each owning its hash range of users.
func (l *ladder) runGateway(tr *tracer, ops []*Op) (rungStats, int64, error) {
	ranges := oak.EqualRanges(2)
	var urls []string
	var lbs []*loopback
	defer func() {
		for _, lb := range lbs {
			lb.srv.Close()
			lb.srv.Handler.(*oak.Server).Engine().Close()
		}
	}()
	for i := range ranges {
		i := i
		srv, err := l.newServer(func(uid string) bool { return oak.RangeFor(uid, ranges) == i })
		if err != nil {
			return rungStats{}, 0, err
		}
		lb, err := serveLoopback(srv)
		if err != nil {
			srv.Engine().Close()
			return rungStats{}, 0, err
		}
		lbs = append(lbs, lb)
		urls = append(urls, lb.URL)
	}
	gw, err := oak.NewGateway(oak.GatewayConfig{Backends: urls})
	if err != nil {
		return rungStats{}, 0, err
	}
	defer gw.Close()
	reqs, err := prebuilt("http://gw.test", ops)
	if err != nil {
		return rungStats{}, 0, err
	}
	st := replay(tr, "gateway", ops, false, func(i int, op *Op, root int) bool {
		rec := httptest.NewRecorder()
		s := tr.start(i, "gateway.forward", root)
		gw.ServeHTTP(rec, reqs[i])
		tr.end(s)
		return checkResponse(op, rec.Code, rec.Body.Bytes(), rec.Header().Get(rules.CacheHintHeader)) == ""
	})
	var conns int64
	for _, lb := range lbs {
		conns += lb.conns.Load()
	}
	return st, conns, nil
}

// ingestRatio times Engine.HandleReport over the stream's reports on fresh
// engines with variant on versus off, in five pairs whose order alternates,
// and returns the median of the pairs' time ratios.
func (l *ladder) ingestRatio(ops []*Op, on, off variant) (float64, error) {
	timeOne := func(v variant) (float64, error) {
		eng, err := l.newEngine(v, all)
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		var reps []*report.Report
		for _, op := range ops {
			if !op.Page {
				r, err := decodeOp(op)
				if err != nil {
					return 0, err
				}
				reps = append(reps, r)
			}
		}
		runtime.GC()
		t0 := time.Now()
		for _, r := range reps {
			if _, err := eng.HandleReport(r); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)), nil
	}
	var ratios []float64
	for pair := 0; pair < 5; pair++ {
		first, second := on, off
		if pair%2 == 1 {
			first, second = off, on
		}
		a, err := timeOne(first)
		if err != nil {
			return 0, err
		}
		b, err := timeOne(second)
		if err != nil {
			return 0, err
		}
		if pair%2 == 1 {
			a, b = b, a
		}
		ratios = append(ratios, a/b)
	}
	return median(ratios), nil
}

// Trace runs the ladder over ops and returns the per-layer metrics, the
// number of ops checked and failed, and writes the spans to spanPath.
func (l *ladder) Trace(ops []*Op, spanPath string) (map[string]float64, int, int, error) {
	tr := &tracer{on: true, t0: time.Now()}
	m := map[string]float64{}
	checked, failed := 0, 0
	count := func(st rungStats) {
		checked += st.ops()
		failed += st.failed
	}

	// Rung 1: decode.
	r1 := replay(tr, "decode", ops, false, func(i int, op *Op, root int) bool {
		if op.Page {
			return true
		}
		s := tr.start(i, "report.decode", root)
		rep, err := decodeOp(op)
		tr.end(s)
		rep.Release()
		return err == nil
	})
	count(r1)
	reports := r1.n[kindJSON] + r1.n[kindBinary]
	pages := r1.n[kindPage]

	// Rung 2: core, timed; then an allocation pass on a fresh engine.
	r2, core, err := l.runCore(tr, ops, false)
	if err != nil {
		return nil, 0, 0, err
	}
	count(r2)
	r2a, _, err := l.runCore(&tracer{}, ops, true)
	if err != nil {
		return nil, 0, 0, err
	}
	r3, err := l.runOrigin(tr, ops)
	if err != nil {
		return nil, 0, 0, err
	}
	count(r3)
	r4, conns4, err := l.runHTTP(tr, ops)
	if err != nil {
		return nil, 0, 0, err
	}
	count(r4)
	// Tracing overhead: rung 4 again with spans off, then on, then off;
	// the ratio compares the two traced passes with the two untraced ones.
	var wallOn, wallOff time.Duration
	wallOn += r4.wall
	for _, on := range []bool{false, true, false} {
		t := &tracer{}
		if on {
			t = &tracer{on: true, t0: time.Now()}
		}
		st, _, err := l.runHTTP(t, ops)
		if err != nil {
			return nil, 0, 0, err
		}
		if on {
			wallOn += st.wall
		} else {
			wallOff += st.wall
		}
	}
	r5, conns5, err := l.runGateway(tr, ops)
	if err != nil {
		return nil, 0, 0, err
	}
	count(r5)

	rep := selfTimes([]float64{r1.usPer(kindJSON, kindBinary), r2.usPer(kindJSON, kindBinary), r3.usPer(kindJSON, kindBinary), r4.usPer(kindJSON, kindBinary), r5.usPer(kindJSON, kindBinary)})
	page := selfTimes([]float64{0, r2.usPer(kindPage), r3.usPer(kindPage), r4.usPer(kindPage), r5.usPer(kindPage)})
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	nops := len(ops)

	m["report.decode_json_us"] = r1.usPer(kindJSON)
	m["report.decode_binary_us"] = r1.usPer(kindBinary)
	m["report.decode_allocs"] = per(float64(r1.mallocs), reports)
	var wire [2]int
	for _, op := range ops {
		if !op.Page {
			wire[kindOf(op)] += len(op.Body)
		}
	}
	m["report.wire_bytes_json"] = per(float64(wire[kindJSON]), r1.n[kindJSON])
	m["report.wire_bytes_binary"] = per(float64(wire[kindBinary]), r1.n[kindBinary])

	m["core.ingest_us"] = rep[1]
	m["core.ingest_allocs"] = r2a.allocsPer(kindJSON, kindBinary) - m["report.decode_allocs"]
	m["core.violations_per_report"] = per(float64(core.m1.ViolationsDetected-core.m0.ViolationsDetected), reports)
	m["core.activations_per_report"] = per(float64(core.m1.RuleActivations-core.m0.RuleActivations), reports)
	m["core.rewrite_hit_us"] = per(float64(core.hitT)/1e3, core.hits)
	m["core.rewrite_miss_us"] = per(float64(core.missT)/1e3, core.misses)
	m["core.rewrite_allocs"] = r2a.allocsPer(kindPage)
	hits, misses := core.c1.Hits-core.c0.Hits, core.c1.Misses-core.c0.Misses
	m["core.rewrite_cache_hit_ratio"] = per(float64(hits), int(hits+misses))
	mod := core.m1.PagesModified - core.m0.PagesModified
	m["core.pages_modified_ratio"] = per(float64(mod), int(mod+core.m1.PagesUntouched-core.m0.PagesUntouched))
	m["rules.apply_us"] = per(float64(core.applyT)/1e3, core.applies)
	m["core.spilled_serve_us"] = per(float64(core.spilledT)/1e3, core.spilled)
	m["core.rehydrations_per_op"] = per(float64(core.s1.Rehydrations-core.s0.Rehydrations), nops)
	m["core.spills_per_op"] = per(float64(core.s1.Spills-core.s0.Spills), nops)
	m["core.compactions"] = float64(core.s1.SegmentCompactions - core.s0.SegmentCompactions)
	m["core.resident_bytes_per_user"] = core.residentPerUser
	m["core.spill_bytes_per_user"] = core.spillBytesPerUser

	m["origin.report_us"] = rep[2]
	m["origin.page_us"] = page[2]
	m["origin.allocs_per_op"] = per(float64(r3.mallocs)-float64(r2.mallocs), nops)
	m["http.report_us"] = rep[3]
	m["http.page_us"] = page[3]
	m["http.conns_per_op"] = per(float64(conns4), nops)
	m["gateway.report_us"] = rep[4]
	m["gateway.page_us"] = page[4]
	m["gateway.allocs_per_forward"] = per(float64(r5.mallocs)-float64(r4.mallocs), nops)
	m["gateway.backend_conns_per_forward"] = per(float64(conns5), nops)
	m["gateway.report_overhead_ratio"] = r5.usPer(kindJSON, kindBinary) / r4.usPer(kindJSON, kindBinary)
	m["gateway.page_overhead_ratio"] = r5.usPer(kindPage) / r4.usPer(kindPage)
	m["trace.overhead_ratio"] = float64(wallOn) / float64(wallOff)

	// The guard and synthesis ratios are always taken on the ingest
	// workload's stream (same seed), whatever workload is traced.
	in := NewFixture(Workloads["ingest"], l.f.Seed)
	il := &ladder{f: in, setup: in.SetupReports(), scratch: l.scratch}
	inOps := in.Next(ingestRatioOps)
	if m["core.ingest_guard_ratio"], err = il.ingestRatio(inOps, asOakd, variant{}); err != nil {
		return nil, 0, 0, err
	}
	synthOn := variant{guard: true, extra: []oak.EngineOption{oak.WithSynthesis(oak.SynthesisConfig{Window: 2 * time.Minute})}}
	if m["core.ingest_synth_ratio"], err = il.ingestRatio(inOps, synthOn, asOakd); err != nil {
		return nil, 0, 0, err
	}

	if pages == 0 {
		l.notes = append(l.notes, "no page ops: page and rewrite metrics read 0")
	}
	if core.misses == 0 {
		l.notes = append(l.notes, "core.rewrite_miss_us: no rewrite-cache misses in the stream")
	}
	if core.spilled == 0 {
		l.notes = append(l.notes, "core.spilled_serve_us, spill counts: no spilled users (workload has no spill tier)")
	}
	for _, k := range []string{"origin.report_us", "origin.page_us", "http.report_us", "http.page_us", "gateway.report_us", "gateway.page_us", "core.ingest_us"} {
		if m[k] < 0 {
			l.notes = append(l.notes, k+" is negative: the rung below varied by more than this layer costs")
		}
	}
	if core.residentBytesEstimated {
		l.notes = append(l.notes, "core.resident_bytes_per_user: heap growth over users (no spill tier to report its own estimate)")
	}
	if err := tr.write(spanPath); err != nil {
		return nil, 0, 0, fmt.Errorf("write spans: %w", err)
	}
	return m, checked, failed, nil
}
