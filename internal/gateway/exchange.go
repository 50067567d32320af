package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"oak/internal/client"
	"oak/internal/origin"
	"oak/internal/rules"
)

// The gateway→backend exchange. call is the one place the gateway builds a
// backend request and reads its response (report attempts ride
// client.HTTPClient.SubmitBytes for its retry schedule); forward is the one
// failover routine, serving pages and reports alike. Every response is read
// under a bound, and a response over its bound — by declared Content-Length
// or by bytes read — fails the exchange rather than being cut short.

// Response bounds, one per exchange.
const (
	// maxForwardBytes bounds a forwarded report body and a relayed page. It
	// matches the origin's worst-case batch bound (16 × 4 MB), so the
	// gateway never accepts a body the backend would reject outright.
	maxForwardBytes = 64 << 20
	// Probe, population and metrics documents.
	maxHealthzBytes    = 1 << 20
	maxPopulationBytes = 4 << 20
	maxMetricsBytes    = 8 << 20
	// maxReplyBytes bounds the reply to a state import or control verb.
	maxReplyBytes = 4 << 10
)

// mirrorHeaders are the response headers the gateway relays from backends.
var mirrorHeaders = []string{"Content-Type", "Retry-After", rules.CacheHintHeader}

// call performs one request against the backend at addr and returns its
// whole response. A response longer than limit fails the exchange.
func (g *Gateway) call(ctx context.Context, addr, method, uri, contentType string, body []byte, cookie *http.Cookie, limit int64) (*client.SubmitResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, addr+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if cookie != nil {
		req.AddCookie(cookie)
	}
	resp, err := g.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("%s %s: response of %d bytes exceeds %d", method, addr+uri, resp.ContentLength, limit)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("%s %s: read response: %w", method, addr+uri, err)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("%s %s: response exceeds %d bytes", method, addr+uri, limit)
	}
	return &client.SubmitResult{Status: resp.StatusCode, Header: resp.Header, Body: data}, nil
}

// getJSON GETs one backend document under the probe timeout and decodes it
// into into. Any status but 200 is an error.
func (g *Gateway) getJSON(b *backend, path string, limit int64, into any) error {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	res, err := g.call(ctx, b.address(), http.MethodGet, path, "", nil, nil, limit)
	if err != nil {
		return err
	}
	name := strings.TrimPrefix(path, origin.V1Prefix+"/")
	if res.Status != http.StatusOK {
		return fmt.Errorf("%s status %d", name, res.Status)
	}
	if err := json.Unmarshal(res.Body, into); err != nil {
		return fmt.Errorf("decode %s: %w", name, err)
	}
	return nil
}

// forward routes one exchange for backend index i: attempt runs against
// the primary and, when that exchange fails, once against the fallback.
// An answer of any status is not a failure; the caller relays it.
func (g *Gateway) forward(i int, attempt func(addr string) (*client.SubmitResult, error)) (*client.SubmitResult, error) {
	primary, fallback := g.route(i)
	paddr := primary.address()
	res, err := attempt(paddr)
	if err == nil || fallback == nil {
		return res, err
	}
	faddr := fallback.address()
	atomic.AddUint64(&g.metrics.Failovers, 1)
	g.logf("gateway: failover %s -> %s: %v", paddr, faddr, err)
	res, ferr := attempt(faddr)
	if ferr != nil {
		return nil, fmt.Errorf("primary: %v; failover: %w", err, ferr)
	}
	return res, nil
}

// submit is the report attempt for forward: a POST to the backend's report
// path under the client's retry schedule (backoff, jitter, Retry-After),
// bounded by ctx. A nil cookie sends none.
func (g *Gateway) submit(ctx context.Context, contentType string, body []byte, ck *http.Cookie) func(addr string) (*client.SubmitResult, error) {
	var cookies []*http.Cookie
	if ck != nil {
		cookies = []*http.Cookie{ck}
	}
	return func(addr string) (*client.SubmitResult, error) {
		return g.fwd.SubmitBytes(ctx, addr+origin.ReportPathV1, contentType, body, cookies)
	}
}

// mirror relays a backend response: selected headers, status, body.
func mirror(w http.ResponseWriter, res *client.SubmitResult) {
	for _, h := range mirrorHeaders {
		if v := res.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
}
