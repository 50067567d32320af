package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oak/internal/rules"
)

// DialCounter is a dialer that counts the connections it opens. A
// generator that keeps its connections open dials once per connection; one
// that lets the transport drop connections (for example by closing
// response bodies unread) dials again and shows here.
type DialCounter struct {
	n atomic.Int64
	d net.Dialer
}

// DialContext dials and counts.
func (c *DialCounter) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c.n.Add(1)
	return c.d.DialContext(ctx, network, addr)
}

// Dials is how many connections have been opened.
func (c *DialCounter) Dials() int64 { return c.n.Load() }

// newClient returns an HTTP client that holds at most one connection,
// opened through dc.
func newClient(dc *DialCounter) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         dc.DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// Sample is one op's timing relative to the start of its schedule.
type Sample struct {
	Due, Sent, Done time.Duration
	Failed          bool
}

// Latency is measured from when the op was due, so time the op spent
// queued behind a slower one counts against it.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator sent the op.
func (s Sample) Lag() time.Duration { return s.Sent - s.Due }

// runSchedule sends the ops idx (in order) at their due times, due(i) after
// t0, calling do for each and recording its sample in out[i]. It never
// skips an op: when do runs late, later ops go out back to back and their
// latency counts the wait.
func runSchedule(t0 time.Time, idx []int, due func(i int) time.Duration, do func(i int) bool, out []Sample) {
	for _, i := range idx {
		d := due(i)
		if wait := time.Until(t0.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(t0)
		ok := do(i)
		out[i] = Sample{Due: d, Sent: sent, Done: time.Since(t0), Failed: !ok}
	}
}

// Gen is the open-loop load generator: one process, a fixed set of
// connections each driven by one goroutine. Each user is pinned to one
// connection and a connection has one op in flight, so a user's next op
// starts only after the previous one completed — the order the reference
// engine assumes.
type Gen struct {
	base    string
	dials   DialCounter
	clients []*http.Client

	mu       sync.Mutex
	failures []string // the first few failures, for the log
}

// NewGen builds a generator with conns connections to base.
func NewGen(base string, conns int) *Gen {
	g := &Gen{base: base}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, newClient(&g.dials))
	}
	return g
}

// Conns is the number of connections the generator drives.
func (g *Gen) Conns() int { return len(g.clients) }

// Dials is how many connections the generator has opened.
func (g *Gen) Dials() int64 { return g.dials.Dials() }

// Close drops the generator's connections.
func (g *Gen) Close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// Run sends ops open-loop at rate ops/s, op i due i/rate after the start,
// and returns one sample per op.
func (g *Gen) Run(ops []*Op, rate float64) []Sample {
	per := make([][]int, len(g.clients))
	for i, op := range ops {
		c := op.User % len(g.clients)
		per[c] = append(per[c], i)
	}
	out := make([]Sample, len(ops))
	// Collect the garbage of generating and checking ops now, not while
	// the schedule runs.
	runtime.GC()
	due := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runSchedule(t0, per[c], due, func(i int) bool { return g.do(g.clients[c], ops[i]) }, out)
		}(c)
	}
	wg.Wait()
	return out
}

// do sends one op, drains the response and checks it: a report must be
// acknowledged with 204, a page must be 200 with exactly the body and
// X-Oak-Alternate header the reference engine serves that user.
func (g *Gen) do(c *http.Client, op *Op) bool {
	req, err := opRequest(g.base, op)
	if err != nil {
		g.fail("op request: %v", err)
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		g.fail("%s %s: %v", req.Method, op.Path, err)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.fail("%s %s: read body: %v", req.Method, op.Path, err)
		return false
	}
	if msg := checkResponse(op, resp.StatusCode, body, resp.Header.Get(rules.CacheHintHeader)); msg != "" {
		g.fail("%s", msg)
		return false
	}
	return true
}

// opRequest builds the HTTP request for op against base.
func opRequest(base string, op *Op) (*http.Request, error) {
	var req *http.Request
	var err error
	if op.Page {
		req, err = http.NewRequest(http.MethodGet, base+op.Path, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, base+"/oak/v1/report", bytes.NewReader(op.Body))
		if err == nil {
			ct := "application/json"
			if op.Binary {
				ct = "application/x-oak-report"
			}
			req.Header.Set("Content-Type", ct)
		}
	}
	if err != nil {
		return nil, err
	}
	req.Header.Set("Cookie", "oak-user="+UserID(op.User))
	return req, nil
}

// checkResponse returns "" when a response is what op must get, else why
// not.
func checkResponse(op *Op, status int, body []byte, hint string) string {
	if !op.Page {
		if status != http.StatusNoContent {
			return fmt.Sprintf("report by %s: status %d, want 204: %.100s", UserID(op.User), status, body)
		}
		return ""
	}
	if status != http.StatusOK {
		return fmt.Sprintf("page %s for %s: status %d, want 200", op.Path, UserID(op.User), status)
	}
	if pageDigest(body, hint) != op.Want {
		return fmt.Sprintf("page %s for %s: body or X-Oak-Alternate differs from the reference engine's", op.Path, UserID(op.User))
	}
	return ""
}

func (g *Gen) fail(format string, args ...any) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.failures) < 5 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// Failures returns the first few failure messages.
func (g *Gen) Failures() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.failures...)
}
