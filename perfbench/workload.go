package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"oak/internal/report"
	"oak/internal/rules"
	"oak/internal/webgen"
)

// Workload is one traffic mix against one system-under-test layout. Every
// field is recorded in README.md next to why the workload exists.
type Workload struct {
	Name string
	// Gateway puts oakgw in front of two oakd backends.
	Gateway bool
	// SpillCap, when positive, runs oakd with -profile-cache SpillCap and a
	// -spill-dir, so most users live in the spill tier.
	SpillCap int
	// Rate is the fixed offered rate of the measured phase, in ops/s.
	Rate float64
	// PageShare is the fraction of ops that are page GETs; the rest are
	// report POSTs.
	PageShare float64
	// BinaryShare is the fraction of reports sent as OAKRPT1 singles; the
	// rest are JSON.
	BinaryShare float64
	// Users is the population ops are drawn from (uniformly).
	Users int
	// Sites is how many generated sites share the page root and rule file.
	Sites int
	// Candidates is how many rule-covered hosts per site a report may name
	// as its violator. It bounds the distinct activation sets per site and
	// so the working set of the rewrite cache.
	Candidates int
	// ViolatorShare is the fraction of stream reports that carry a violator.
	ViolatorShare float64
	// SetupViolators makes every user's setup report carry a violator, so
	// users start with an activation and their pages need rewriting.
	SetupViolators bool
	// WarmPages fetches every (user, page) once during setup, so the
	// rewrite cache starts warm.
	WarmPages bool
}

// Workloads are the benchmark's traffic mixes, by name.
var Workloads = map[string]Workload{
	"ingest": {Name: "ingest", Rate: 500, PageShare: 0.1, BinaryShare: 0.25,
		Users: 5000, Sites: 40, Candidates: 3, ViolatorShare: 0.2},
	"serve": {Name: "serve", Rate: 500, PageShare: 0.9, BinaryShare: 0.25,
		Users: 500, Sites: 20, Candidates: 2, ViolatorShare: 0.2, SetupViolators: true, WarmPages: true},
	"cold": {Name: "cold", Rate: 500, PageShare: 0.5, BinaryShare: 0.25, SpillCap: 2000,
		Users: 20000, Sites: 100, Candidates: 6, ViolatorShare: 0.2, SetupViolators: true},
	"cluster": {Name: "cluster", Gateway: true, Rate: 500, PageShare: 0.5, BinaryShare: 0.25,
		Users: 2000, Sites: 30, Candidates: 2, ViolatorShare: 0.2, SetupViolators: true},
}

// mirrorZones are the alternative replicas every generated rule offers.
var mirrorZones = []string{"na", "eu"}

// Op is one generated operation: a page GET or a report POST by one user.
type Op struct {
	User   int
	Page   bool
	Binary bool   // report in OAKRPT1 rather than JSON
	Path   string // page path (the report's page for a report)
	Body   []byte // encoded report body
	Rep    *report.Report

	// Want is the expected page (body and X-Oak-Alternate header) digest,
	// filled in by the reference before the op is sent.
	Want uint64
}

// UserID is the cookie value and report userId of user i.
func UserID(i int) string { return fmt.Sprintf("u%06d", i) }

// Fixture is a workload's generated inputs: the catalog written to disk
// for the program, the per-user assignment, and the seeded op stream.
type Fixture struct {
	W        Workload
	Seed     int64
	Sites    []*webgen.Site
	Rules    []*rules.Rule
	Pages    map[string]string // URL path -> HTML
	PageHash map[string]uint64 // URL path -> digest of the unmodified page
	home     []int             // user -> site index
	cands    [][]string        // site -> violator candidate hosts
	addrs    map[string]string // host -> fake server address
	rng      *rand.Rand
}

// NewFixture generates the catalog, rules and user assignment for w from
// seed. The op stream is drawn from the same seeded source by Next.
func NewFixture(w Workload, seed int64) *Fixture {
	gen := webgen.NewGenerator(webgen.Config{Seed: seed, NumSites: w.Sites, PagesPerSite: 3})
	f := &Fixture{
		W: w, Seed: seed, Sites: gen.Catalog(),
		Pages: map[string]string{}, PageHash: map[string]uint64{},
		addrs: map[string]string{},
		rng:   rand.New(rand.NewSource(seed*7919 + int64(len(w.Name)))),
	}
	var hosts []string
	for _, s := range f.Sites {
		prefix := "/" + s.Domain
		for _, p := range s.Pages {
			f.Pages[prefix+p.Path] = p.HTML
			f.PageHash[prefix+p.Path] = pageDigest([]byte(p.HTML), "")
			for _, o := range p.Objects {
				hosts = append(hosts, o.Host)
			}
		}
		for _, r := range webgen.BuildRules(s, mirrorZones) {
			r.ID = s.Domain + "/" + r.ID
			r.Scope = prefix + "/*"
			f.Rules = append(f.Rules, r)
		}
		f.cands = append(f.cands, candidates(s, w.Candidates))
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		if _, ok := f.addrs[h]; !ok {
			n := len(f.addrs) + 1
			f.addrs[h] = fmt.Sprintf("10.%d.%d.%d", n>>16&255, n>>8&255, n&255)
		}
	}
	f.home = make([]int, w.Users)
	for u := range f.home {
		f.home[u] = f.rng.Intn(len(f.Sites))
	}
	return f
}

// candidates picks a site's violator hosts: the first k external hosts, in
// sorted order, that have a rule and are tied to it by page text (direct or
// inline), so the program's matcher can act on them without fetching
// scripts.
func candidates(s *webgen.Site, k int) []string {
	ok := map[string]bool{}
	for _, p := range s.Pages {
		for _, o := range p.Objects {
			if s.Fragments[o.Host] != "" && o.Host != s.Domain &&
				(o.Tier == webgen.TierDirect || o.Tier == webgen.TierInlineText) {
				ok[o.Host] = true
			}
		}
	}
	var out []string
	for h := range ok {
		out = append(out, h)
	}
	sort.Strings(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// WriteInputs writes the page root and the JSON rule file under dir and
// returns their paths.
func (f *Fixture) WriteInputs(dir string) (root, ruleFile string, err error) {
	root = filepath.Join(dir, "pages")
	for p, html := range f.Pages {
		fp := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(p, "/")))
		if err := os.MkdirAll(filepath.Dir(fp), 0o755); err != nil {
			return "", "", err
		}
		if err := os.WriteFile(fp, []byte(html), 0o644); err != nil {
			return "", "", err
		}
	}
	data, err := rules.MarshalJSON(f.Rules)
	if err != nil {
		return "", "", err
	}
	ruleFile = filepath.Join(dir, "rules.json")
	return root, ruleFile, os.WriteFile(ruleFile, data, 0o644)
}

// sitePages lists a site's URL paths in page order.
func (f *Fixture) sitePages(site int) []string {
	s := f.Sites[site]
	out := make([]string, len(s.Pages))
	for i, p := range s.Pages {
		out[i] = "/" + s.Domain + p.Path
	}
	return out
}

// makeReport draws one report by user u for one of their site's pages.
// Every healthy server answers in the same time, so the MAD test flags
// exactly the injected violator (if any) and nothing else; objects are
// reported below the large-object threshold for the same reason.
func (f *Fixture) makeReport(u int, violator bool) *report.Report {
	site := f.home[u]
	paths := f.sitePages(site)
	pi := f.rng.Intn(len(paths))
	page := f.Sites[site].Pages[pi]
	base := float64(60 + f.rng.Intn(80))
	slow := ""
	if violator {
		var here []string
		for _, h := range f.cands[site] {
			for _, o := range page.Objects {
				if o.Host == h {
					here = append(here, h)
					break
				}
			}
		}
		if len(here) > 0 {
			slow = here[f.rng.Intn(len(here))]
		}
	}
	r := &report.Report{UserID: UserID(u), Page: paths[pi], GeneratedAtUnixMs: 1_700_000_000_000}
	for _, o := range page.Objects {
		d := base
		if o.Host == slow {
			d = base * 25
		}
		size := o.SizeBytes
		if size >= report.SmallObjectThreshold {
			size = report.SmallObjectThreshold - 1
		}
		r.Entries = append(r.Entries, report.Entry{
			URL: o.URL, ServerAddr: f.addrs[o.Host], SizeBytes: size,
			DurationMillis: d, Kind: o.Kind,
		})
	}
	return r
}

// encode fills op.Body in the op's wire format.
func encode(op *Op) {
	if op.Binary {
		op.Body = op.Rep.AppendBinary(nil)
		return
	}
	b, err := json.Marshal(op.Rep)
	if err != nil {
		panic(err) // a Report always marshals
	}
	op.Body = b
}

// SetupReports is the starting state every user gets before measurement:
// one report each, in user order.
func (f *Fixture) SetupReports() []*report.Report {
	out := make([]*report.Report, f.W.Users)
	for u := range out {
		out[u] = f.makeReport(u, f.W.SetupViolators)
	}
	return out
}

// Next draws the next n ops of the stream.
func (f *Fixture) Next(n int) []*Op {
	ops := make([]*Op, n)
	for i := range ops {
		u := f.rng.Intn(f.W.Users)
		if f.rng.Float64() < f.W.PageShare {
			paths := f.sitePages(f.home[u])
			ops[i] = &Op{User: u, Page: true, Path: paths[f.rng.Intn(len(paths))]}
			continue
		}
		violator := f.rng.Float64() < f.W.ViolatorShare
		binary := f.rng.Float64() < f.W.BinaryShare
		op := &Op{User: u, Binary: binary, Rep: f.makeReport(u, violator)}
		op.Path = op.Rep.Page
		encode(op)
		ops[i] = op
	}
	return ops
}

// pageDigest is the digest a page response is checked against: the body
// and the X-Oak-Alternate header value.
func pageDigest(body []byte, hint string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(body)
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(hint))
	return h.Sum64()
}
