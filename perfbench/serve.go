package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/sem"
	"repro/internal/server"
	"repro/internal/ssd"
)

// serve-zipf parameters; README.md gives the reasons.
const (
	serveScale    = 10
	serveRate     = 16.0 // requests per second, open loop
	servePrefetch = 64   // cmd/serve default pop window
	serveGraph    = "g"
	serveZipfS    = 0.8
)

// serveMix is one block of the kernel mix, bfs:sssp:cc = 6:3:1.
var serveMix = []string{"bfs", "bfs", "bfs", "bfs", "bfs", "bfs", "sssp", "sssp", "sssp", "cc"}

var serveTenants = []load.Tenant{
	{Name: "gold", Class: "gold", Weight: 1, Deadline: 500 * time.Millisecond},
	{Name: "batch", Class: "batch", Weight: 1, Deadline: 3 * time.Second},
}

// query identifies a served answer: cc ignores its source.
type query struct {
	kernel string
	source uint64
}

// reply is one request's outcome, timed from its scheduled due time.
type reply struct {
	req     load.Request
	code    int
	latency time.Duration // due time to reply
	late    time.Duration // due time to the handler call
	service time.Duration // handler call to reply
	body    replyBody
	wrong   bool
}

type replyBody struct {
	Cached    bool    `json:"cached"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Stats     struct {
		Visits          uint64 `json:"visits"`
		Pushes          uint64 `json:"pushes"`
		MaxQueue        int    `json:"max_queue"`
		PeakOutstanding int64  `json:"peak_outstanding"`
	} `json:"stats"`
	// Targets holds every vertex's state: the benchmark names every vertex
	// as a target, so a reply can be checked label by label.
	Targets []struct {
		Reached bool       `json:"reached"`
		Value   graph.Dist `json:"value"`
	} `json:"targets"`
}

// labels returns the reply's label per target, InfDist when unreached.
func (b *replyBody) labels() []graph.Dist {
	l := make([]graph.Dist, len(b.Targets))
	for i, t := range b.Targets {
		l[i] = graph.InfDist
		if t.Reached {
			l[i] = t.Value
		}
	}
	return l
}

// good reports whether the reply counts toward goodput: answered, correct,
// and within its deadline.
func (r *reply) good() bool {
	return r.code == http.StatusOK && !r.wrong && r.latency <= r.req.Deadline
}

// runServeZipf: an open-loop Poisson schedule of Zipf-source queries driven
// through the in-process server handler over a compressed (v2) RMAT-A graph
// mounted semi-externally with cmd/serve defaults.
func runServeZipf(c *runCtx) (*report, error) {
	g, err := weightedRMAT(serveScale, gen.RMATA, c.seed)
	if err != nil {
		return nil, err
	}
	path, err := store(c.dir, "serve-zipf.asg", g, sem.WriteConfig{Compress: true})
	if err != nil {
		return nil, err
	}
	spec := server.MountSpec{Name: serveGraph, Path: path, SEM: true, Profile: ssd.FusionIO.Name}
	opts := server.MountOptions{Prefetch: servePrefetch, PrefetchGap: sem.DefaultPrefetchGap}
	mount := func() (*server.Server, server.Graph, error) {
		s := server.New(server.Config{Engine: core.Config{SemiSort: true, Prefetch: servePrefetch}})
		mg, err := server.MountGraph(spec, opts)
		if err == nil {
			err = s.AddGraph(mg)
		}
		return s, mg, err
	}
	setup, err := medianSetup(func() (func(), error) {
		_, _, err := mount()
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}

	// Schedules and their oracle answers are drawn before measuring, so the
	// in-memory graph they need is not live during the run.
	schedules := map[time.Duration][]load.Request{}
	answers := map[query]*answer{}
	byDegree := topDegree(g, int(g.NumVertices()))
	all := make([]uint64, g.NumVertices())
	for v := range all {
		all[v] = uint64(v)
	}
	targets, err := json.Marshal(all)
	if err != nil {
		return nil, err
	}
	for _, d := range []time.Duration{c.seconds, c.seconds / 2} {
		sched, err := serveSchedule(c.seed, d, byDegree)
		if err != nil {
			return nil, err
		}
		for _, r := range sched {
			key := query{r.Kernel, r.Source}
			if answers[key] == nil {
				if answers[key], err = oracle(g, r.Kernel, uint32(r.Source)); err != nil {
					return nil, err
				}
			}
		}
		schedules[d] = sched
	}
	rep, err := measure(c, "latency_ms_p95", false, func(d time.Duration, rec *recorder) (*report, error) {
		sched := schedules[d]
		s, mg, err := mount()
		if err != nil {
			return nil, err
		}
		devBefore := mg.Device.Stats()
		hitsBefore, missBefore := mg.BlockCache.Stats()
		cl := &client{h: s.Handler(), targets: targets, answers: answers, rec: rec}
		start := time.Now()
		replies := cl.fire(sched)
		wall := time.Since(start)
		rep, edges := serveReport(replies, answers)
		hits, misses := mg.BlockCache.Stats()
		hits, misses = hits-hitsBefore, misses-missBefore
		rep.values["sem.cache_hit_frac"] = ratio(float64(hits), float64(hits+misses))
		rep.values["sem.cache_misses"] = ratio(float64(misses), float64(len(replies)))
		ps := mg.SEMGraphs[0].PrefetchStats()
		rep.values["sem.prefetch.verts_per_span"] = ps.VertsPerSpan()
		rep.values["sem.prefetch.consumed_frac"] = ps.ConsumedFrac()
		rep.values["sem.prefetch.dedup_spans"] = ratio(float64(ps.DedupSpans), float64(len(replies)))
		deviceLayer(rep.values, ssd.FusionIO, devBefore, mg.Device.Stats(), wall, len(replies), edges)
		if err := serverLayer(rep.values, s.Handler()); err != nil {
			return nil, err
		}
		rep.idle = []string{"core.imbalance", "core.self_frac", "core.bfs_s_p50", "core.sssp_s_p50",
			"core.cc_s_p50", "ssd.read_ms_", "ssd.queue_ms_", "samples.device_reads"}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = setup
	return rep, nil
}

// serveSchedule draws the open-loop schedule of one phase of length d.
// load.BuildSchedule draws the Poisson arrivals and the tenants; the kernels
// and sources are then drawn by stratified sampling, so that every seed
// offers the same load and the spread between seeds is the system's:
//
//   - The arrivals are conditioned on their count: they are stretched so
//     the last one falls at d*n/(n+1).
//   - Every block of len(serveMix) consecutive requests holds exactly the
//     kernel mix, in a seed-shuffled order.
//   - The Zipf source ranks come from zipfRanks, so their multiset, which
//     sets the result-cache hit rate, is nearly the same on every seed.
//
// gen scrambles vertex ids, so a raw rank would make the hottest key a hub
// on one seed and a dead end on another; ranks map to vertices in
// decreasing out-degree order (byDegree) instead.
func serveSchedule(seed uint64, d time.Duration, byDegree []uint32) ([]load.Request, error) {
	sched, err := load.BuildSchedule(&load.Config{
		Graph:    serveGraph,
		Requests: int(serveRate * d.Seconds()),
		Rate:     serveRate,
		Source:   "uniform", // replaced below
		Vertices: uint64(len(byDegree)),
		Mix:      map[string]float64{"bfs": 1}, // replaced below
		Tenants:  serveTenants,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	stretch := float64(d) * float64(len(sched)) / float64(len(sched)+1) / float64(sched[len(sched)-1].At)
	rng := rand.New(rand.NewPCG(seed, uint64(d)))
	ranks := zipfRanks(rng, len(sched), len(byDegree), serveZipfS)
	block := slices.Clone(serveMix)
	for i := range sched {
		r := &sched[i]
		r.At = time.Duration(float64(r.At) * stretch)
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r.Kernel = block[i%len(block)]
		r.Source = uint64(byDegree[ranks[i]])
		if r.Kernel == "cc" {
			r.Source = 0 // cc has no source, as in load's schedules
		}
	}
	return sched, nil
}

// zipfRanks draws n ranks in [0, v), rank i with probability proportional
// to 1/(i+1)^s as in load's zipf source, by stratified sampling: draw i
// inverts the distribution at a uniform point of the i-th of n equal
// strata, and the draws are then shuffled.
func zipfRanks(rng *rand.Rand, n, v int, s float64) []int {
	cum := make([]float64, v)
	var total float64
	for i := range cum {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	ranks := make([]int, n)
	for i := range ranks {
		x := (float64(i) + rng.Float64()) / float64(n) * total
		ranks[i] = min(sort.SearchFloat64s(cum, x), v-1)
	}
	rng.Shuffle(n, func(a, b int) { ranks[a], ranks[b] = ranks[b], ranks[a] })
	return ranks
}

// client sends requests through the handler and checks every answered
// reply against its oracle.
type client struct {
	h       http.Handler
	targets json.RawMessage // every vertex id, so a reply carries every label
	answers map[query]*answer
	rec     *recorder
}

// fire sends every request at its scheduled offset, each on its own
// goroutine, and waits for all replies. Latency runs from the due time, so
// a late generator shows in the latencies and in load.late_ms_max rather
// than flattering them.
func (c *client) fire(sched []load.Request) []reply {
	out := make([]reply, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range sched {
		due := start.Add(req.At)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, req load.Request, due time.Time) {
			defer wg.Done()
			out[i] = c.serveOne(req, due)
		}(i, req, due)
	}
	wg.Wait()
	return out
}

func (c *client) serveOne(req load.Request, due time.Time) reply {
	body, _ := json.Marshal(map[string]any{
		"graph": serveGraph, "kernel": req.Kernel, "source": req.Source,
		"targets": c.targets, "timeout_ms": req.Deadline.Milliseconds(),
	}) // a map of strings, numbers and valid JSON always marshals
	// Grace past the deadline: a 504 legitimately arrives after it.
	ctx, cancel := context.WithTimeout(context.Background(), req.Deadline+10*time.Second)
	defer cancel()
	hreq := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
	hreq.Header.Set(server.TenantHeader, req.Tenant)
	hreq.Header.Set(server.ClassHeader, req.Class)
	w := httptest.NewRecorder()
	sent := time.Now()
	c.h.ServeHTTP(w, hreq)
	done := time.Now()
	r := reply{req: req, code: w.Code, latency: done.Sub(due), late: sent.Sub(due), service: done.Sub(sent)}
	if c.rec != nil {
		c.rec.add(span{Name: "server.ServeHTTP", Start: c.rec.since(sent), End: c.rec.since(done), Parent: -1, Req: req.N})
	}
	if r.code == http.StatusOK {
		want := c.answers[query{req.Kernel, req.Source}]
		r.wrong = json.Unmarshal(w.Body.Bytes(), &r.body) != nil || !want.matches(r.body.labels())
		r.body.Targets = nil // checked; do not keep every label of every reply live
		if r.wrong {
			fmt.Fprintf(os.Stderr, "perfbench: served %s from %d: wrong answer\n", req.Kernel, req.Source)
		}
	}
	return r
}

// serveReport computes the serving metrics from the replies, and the edges
// the traversals behind them covered. Every reply counts toward latency;
// refusals (429/503) and 504s count as goodput misses but not as errors.
func serveReport(replies []reply, answers map[query]*answer) (*report, float64) {
	v := make(map[string]float64)
	var lat, late, svc, admit, trav, visits, pushes, maxq, peak []float64
	var edges, busy float64
	failed, good := 0, 0
	classGood, classN := map[string]int{}, map[string]int{}
	for i := range replies {
		r := &replies[i]
		lat = append(lat, ms(r.latency))
		late = append(late, ms(r.late))
		classN[r.req.Class]++
		if r.good() {
			good++
			classGood[r.req.Class]++
		}
		switch r.code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			r.wrong = true
		}
		if r.wrong {
			failed++
			continue
		}
		if r.code != http.StatusOK || r.body.Cached {
			continue
		}
		// An answered, uncached reply: a traversal ran for it.
		a := answers[query{r.req.Kernel, r.req.Source}]
		edges += float64(a.edges)
		busy += r.service.Seconds()
		svc = append(svc, r.service.Seconds())
		trav = append(trav, r.body.ElapsedMs)
		admit = append(admit, max(ms(r.service)-r.body.ElapsedMs, 0))
		visits = append(visits, float64(r.body.Stats.Visits))
		pushes = append(pushes, float64(r.body.Stats.Pushes))
		maxq = append(maxq, float64(r.body.Stats.MaxQueue))
		peak = append(peak, float64(r.body.Stats.PeakOutstanding))
	}
	v["latency_ms_p50"] = quantile(lat, 0.5)
	v["latency_ms_p95"] = quantile(lat, 0.95)
	v["goodput"] = float64(good) / float64(len(replies))
	v["teps"] = ratio(edges, busy)
	v["traversal_s_p50"] = quantile(svc, 0.5)
	v["load.late_ms_max"] = quantile(late, 1)
	v["server.admit_wait_ms_p50"] = quantile(admit, 0.5)
	v["server.admit_wait_ms_p95"] = quantile(admit, 0.95)
	v["server.traversal_ms_p50"] = quantile(trav, 0.5)
	v["server.traversal_ms_p95"] = quantile(trav, 0.95)
	v["server.goodput.gold"] = ratio(float64(classGood["gold"]), float64(classN["gold"]))
	v["server.goodput.batch"] = ratio(float64(classGood["batch"]), float64(classN["batch"]))
	var sumVisits float64
	for _, x := range visits {
		sumVisits += x
	}
	v["core.visits_per_edge"] = ratio(sumVisits, edges)
	v["core.pushes"] = mean(pushes)
	v["core.max_queue"] = mean(maxq)
	v["core.peak_outstanding"] = mean(peak)
	v["samples.ops"] = float64(len(replies))
	return &report{
		attempted: len(replies),
		failed:    failed,
		values:    v,
		notes: []string{fmt.Sprintf("samples: %d replies (%d good, %d traversals); latency p95 has %d samples above it",
			len(replies), good, len(svc), len(replies)-int(0.95*float64(len(replies))))},
	}, edges
}

// serverLayer reads admission, result-cache and engine-pool counters from
// the server's /metrics document.
func serverLayer(v map[string]float64, h http.Handler) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m struct {
		Deadline    float64 `json:"queries_deadline_exceeded"`
		RateLimited float64 `json:"queries_rate_limited"`
		Admission   struct {
			QueueFull    float64 `json:"queue_full"`
			QueueTimeout float64 `json:"queue_timeout"`
			DeadlineShed float64 `json:"deadline_shed"`
		} `json:"admission"`
		Cache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"cache"`
		Pool struct {
			Reused   float64 `json:"reused"`
			Acquired float64 `json:"acquired"`
		} `json:"engine_pool"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		return fmt.Errorf("read /metrics: %w", err)
	}
	v["server.reject.queue_full"] = m.Admission.QueueFull
	v["server.reject.queue_timeout"] = m.Admission.QueueTimeout
	v["server.reject.deadline_shed"] = m.Admission.DeadlineShed
	v["server.reject.rate_limit"] = m.RateLimited
	v["server.timeout_504"] = m.Deadline
	v["server.result_cache_hit_frac"] = ratio(m.Cache.Hits, m.Cache.Hits+m.Cache.Misses)
	v["server.engine_pool_reuse_frac"] = ratio(m.Pool.Reused, m.Pool.Acquired)
	return nil
}
