package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/points"
	"repro/internal/registry"
	"repro/internal/skyline"
	"repro/internal/telemetry"
)

// The serve section drives the registry handler-direct (ServeHTTP on a
// discarding writer, no sockets) in a closed loop: registry callers each
// wait for their reply. One round is a mixed phase — every client runs a
// fixed seeded sequence of 69% GET /skyline, 30% GET /skyline?max= drawn
// Zipf(1.2) from 64 ceilings, 1% POST /services — then an ingest phase of
// publishes only.

const (
	ceilings      = 64
	constrainedAt = 0.31 // u < publishAt: publish; u < constrainedAt: constrained read; else plain read
	publishAt     = 0.01
)

type opKind uint8

const (
	opRead opKind = iota
	opConstrained
	opPublish
)

// op is one prebuilt request. GET requests are shared per URL within a
// client; each publish has its own request because its body is consumed.
type op struct {
	kind opKind
	req  *http.Request
}

// discard is the ResponseWriter of handler-direct requests.
type discard struct {
	header http.Header
	status int
}

func newDiscard() *discard { return &discard{header: http.Header{}} }

func (w *discard) Header() http.Header { return w.header }
func (w *discard) WriteHeader(c int) {
	if w.status == 0 {
		w.status = c
	}
}
func (w *discard) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

// ceilingURLs builds the constrained-read URLs. Ceiling i sits, in
// attribute j, at a fixed fraction between the middle and the top of the
// seeds' range: the fractions are a Halton sequence, the same for every
// seed, so that what a ceiling holds — and with it the cost of a miss and
// the chance that a publish evicts it — does not change with the seed's
// draw. first skips that many ceilings (the registry probe wants ceilings
// no round has cached).
func ceilingURLs(seeds points.Set, first, n int) []string {
	lo, hi := seeds.Bounds()
	urls := make([]string, n)
	for i := range urls {
		parts := make([]string, len(lo))
		for j := range lo {
			v := lo[j] + (hi[j]-lo[j])*(0.5+0.5*halton(first+i+1, primes[j%len(primes)]))
			parts[j] = strconv.FormatFloat(v, 'g', 6, 64)
		}
		urls[i] = "/skyline?max=" + strings.Join(parts, ",")
	}
	return urls
}

var primes = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}

// halton is the i-th element of the base-b van der Corput sequence, in (0, 1).
func halton(i, b int) float64 {
	f, r := 1.0, 0.0
	for ; i > 0; i /= b {
		f /= float64(b)
		r += f * float64(i%b)
	}
	return r
}

func getRequest(url string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		panic(err) // URLs are built by this file
	}
	return req
}

func publishRequest(name string, qos points.Point) *http.Request {
	body, err := json.Marshal(registry.Service{Name: name, QoS: qos})
	if err != nil {
		panic(err) // finite floats and a plain string always marshal
	}
	req, err := http.NewRequest(http.MethodPost, "/services", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	return req
}

// mixedOps builds one client's mixed-phase sequence; pubs yields the QoS
// vector of each publish it places.
func mixedOps(rng *rand.Rand, n int, urls []string, tag string, pubs func() points.Point) []op {
	plain := getRequest("/skyline")
	constrained := make([]*http.Request, len(urls))
	for i, u := range urls {
		constrained[i] = getRequest(u)
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(urls)-1))
	ops := make([]op, n)
	for i := range ops {
		switch u := rng.Float64(); {
		case u < publishAt:
			ops[i] = op{opPublish, publishRequest(fmt.Sprintf("%s-m%d", tag, i), pubs())}
		case u < constrainedAt:
			ops[i] = op{opConstrained, constrained[zipf.Uint64()]}
		default:
			ops[i] = op{opRead, plain}
		}
	}
	return ops
}

func ingestOps(n int, tag string, pubs func() points.Point) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{opPublish, publishRequest(fmt.Sprintf("%s-i%d", tag, i), pubs())}
	}
	return ops
}

// clientResult is what one closed-loop client saw.
type clientResult struct {
	readNS, publishNS []int64
	bad               int // responses with status >= 400
}

// pathCounters are the registry's own per-path request counters.
type pathCounters struct {
	cached, merge, update, hits, misses, evictions *telemetry.Counter
}

func countersOf(reg *registry.Registry) pathCounters {
	m := reg.Metrics()
	return pathCounters{
		cached:    m.Counter("registry_query_path_total", telemetry.L("path", "cached")),
		merge:     m.Counter("registry_query_path_total", telemetry.L("path", "merge")),
		update:    m.Counter("registry_query_path_total", telemetry.L("path", "update")),
		hits:      m.Counter("registry_cache_hits_total"),
		misses:    m.Counter("registry_cache_misses_total"),
		evictions: m.Counter("registry_cache_evictions_total"),
	}
}

// pathTrace attributes each request of a one-client run to the path the
// registry's counters say it took, and records a span per request.
type pathTrace struct {
	tr    *tracer
	pc    pathCounters
	stats map[string]*requestStats
}

func (p *pathTrace) serve(h http.Handler, w *discard, req *http.Request) {
	c0, m0, u0 := p.pc.cached.Value(), p.pc.merge.Value(), p.pc.update.Value()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(t0)
	path := "other"
	switch {
	case p.pc.update.Value() > u0:
		path = "update"
	case p.pc.merge.Value() > m0:
		path = "merge"
	case p.pc.cached.Value() > c0:
		path = "cached"
	}
	st := p.stats[path]
	if st == nil {
		st = &requestStats{}
		p.stats[path] = st
	}
	us := float64(d.Nanoseconds()) / 1e3
	st.MeanUS = (st.MeanUS*float64(st.Count) + us) / float64(st.Count+1)
	st.MaxUS = max(st.MaxUS, us)
	if st.Count++; st.Count <= requestSpanCap {
		p.tr.add(fmt.Sprintf("request-%s-%d", path, st.Count), "registry", path, t0, d)
	}
}

// runClient drives ops through the handler one after another, timing each.
// With a pathTrace the request is served through it (one client only).
func runClient(h http.Handler, ops []op, pt *pathTrace) clientResult {
	var res clientResult
	w := newDiscard()
	for _, o := range ops {
		w.status = 0
		t0 := time.Now()
		if pt != nil {
			pt.serve(h, w, o.req)
		} else {
			h.ServeHTTP(w, o.req)
		}
		ns := time.Since(t0).Nanoseconds()
		if o.kind == opPublish {
			res.publishNS = append(res.publishNS, ns)
		} else {
			res.readNS = append(res.readNS, ns)
		}
		if w.status >= 400 {
			res.bad++
		}
	}
	return res
}

// runPhase runs every client's sequence concurrently and returns the
// phase's wall time and the clients' merged results.
func runPhase(h http.Handler, perClient [][]op, pt *pathTrace) (float64, clientResult) {
	results := make([]clientResult, len(perClient))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = runClient(h, perClient[c], pt)
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	var all clientResult
	for _, r := range results {
		all.readNS = append(all.readNS, r.readNS...)
		all.publishNS = append(all.publishNS, r.publishNS...)
		all.bad += r.bad
	}
	return wall, all
}

// round is one serve round's measurements.
type round struct {
	newS                  float64 // registry.New; 0 for the registry built in set-up
	peakMB                float64 // resident-set high-water mark of the round alone
	mixedWall, ingestWall float64
	mixedOps, ingestOps   int
	mixed                 clientResult
	// registry counter deltas over the mixed phase
	cached, merge, update, hits, misses, evictions int64
	mixedPublishes                                 int
}

// serveRound runs one round on reg with nClients clients and verifies it:
// every response status, and reg.Skyline() against skyline.SFS over every
// QoS vector the registry was given.
func (e *env) serveRound(rep *report, reg *registry.Registry, idx, nClients int, pt *pathTrace) round {
	size := e.w.Serve
	// The round's total work is fixed whatever the client count: a traced
	// round runs the same ops on one client.
	opsEach, pubsEach := size.Ops*clients/nClients, size.Pubs*clients/nClients
	pool := generate(e.w.Kind, e.seed+1000+int64(idx), clients*(size.Ops/50+size.Pubs+8), e.w.D)
	next := 0
	take := func() points.Point { p := pool[next]; next++; return p }
	urls := ceilingURLs(e.seeds, 0, ceilings)
	mixed := make([][]op, nClients)
	ingest := make([][]op, nClients)
	for c := range mixed {
		tag := fmt.Sprintf("r%dc%d", idx, c)
		rng := rand.New(rand.NewSource(e.seed*7919 + int64(idx)*101 + int64(c)))
		mixed[c] = mixedOps(rng, opsEach, urls, tag, take)
		ingest[c] = ingestOps(pubsEach, tag, take)
	}
	published := append(points.Set(nil), e.seeds...)
	published = append(published, pool[:next]...)

	h := reg.Handler()
	pc := countersOf(reg)
	r := round{mixedOps: nClients * opsEach, ingestOps: nClients * pubsEach}
	c0 := [6]int64{pc.cached.Value(), pc.merge.Value(), pc.update.Value(), pc.hits.Value(), pc.misses.Value(), pc.evictions.Value()}
	r.mixedWall, r.mixed = runPhase(h, mixed, pt)
	r.cached, r.merge, r.update = pc.cached.Value()-c0[0], pc.merge.Value()-c0[1], pc.update.Value()-c0[2]
	r.hits, r.misses, r.evictions = pc.hits.Value()-c0[3], pc.misses.Value()-c0[4], pc.evictions.Value()-c0[5]
	r.mixedPublishes = len(r.mixed.publishNS)
	var ing clientResult
	r.ingestWall, ing = runPhase(h, ingest, pt)

	rep.Attempted += r.mixedOps + r.ingestOps
	if bad := r.mixed.bad + ing.bad; bad > 0 {
		rep.fail(bad, fmt.Sprintf("serve round %d: %d responses with status >= 400", idx, bad))
	}
	got := make(points.Set, 0, 1024)
	for _, s := range reg.Skyline() {
		got = append(got, points.Point(s.QoS))
	}
	var err error
	if !sameMultiset(got, skyline.SFS(published)) {
		err = fmt.Errorf("registry skyline differs from SFS over the %d published vectors", len(published))
	}
	rep.op(fmt.Sprintf("serve round %d skyline", idx), err)
	return r
}

// serveSection runs rounds until budget is spent (at least minRounds) and
// reports the four serve end-to-end metrics. The first round uses the
// registry built in set-up; later rounds build their own from the same
// seeds, so every round starts from the same state.
func (e *env) serveSection(rep *report, budget time.Duration, minRounds int) ([]round, error) {
	deadline := time.Now().Add(budget)
	var rounds []round
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		resetPeakRSS()
		reg := e.reg
		var newS float64
		if i > 0 {
			var err error
			newS = timeIt(func() { reg, err = newRegistry(e.seeds) })
			if err != nil {
				return nil, err
			}
		}
		r := e.serveRound(rep, reg, i, clients, nil)
		r.newS = newS
		r.peakMB = peakRSSMB()
		rounds = append(rounds, r)
		reg.Close()
	}
	e.reg = nil
	return rounds, nil
}

// serveMetrics reduces rounds to the four serve.* numbers (medians over
// rounds) and hands each, with its samples, to set.
func serveMetrics(rounds []round, set func(name string, xs []float64)) {
	var ops, pubs, p50, p99 []float64
	for _, r := range rounds {
		ops = append(ops, float64(r.mixedOps)/r.mixedWall)
		pubs = append(pubs, float64(r.ingestOps)/r.ingestWall)
		p50 = append(p50, nsQuantile(r.mixed.readNS, 0.50)/1e3)
		p99 = append(p99, nsQuantile(r.mixed.readNS, 0.99)/1e6)
	}
	set("serve.ops_per_s", ops)
	set("serve.read_p50_us", p50)
	set("serve.read_p99_ms", p99)
	set("serve.publishes_per_s", pubs)
}
