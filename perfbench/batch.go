package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// Workload parameters; README.md gives the reasons.
const (
	imScale, imCCScale, imSources = 17, 16, 2
	semScale, semSources          = 13, 1
	semWorkers, semReadahead      = 128, 8
	avgDegree                     = 16
)

// job is one traversal a batch workload repeats: the timed call and the
// oracle its answer must equal.
type job struct {
	want *answer
	run  func() ([]graph.Dist, core.Stats, error)
}

// traversal is one measured traversal call.
type traversal struct {
	kernel string
	dur    time.Duration
	edges  uint64
	stats  core.Stats
	span   int // recorder span, -1 when untraced
	cycle  int
}

// call runs one job: a garbage collection, untimed, so no call pays for
// its predecessor's allocations, then the timed traversal call, inside a
// span when rec is set. The answer is checked against its oracle after the
// clock stops.
func call(j job, rec *recorder, req int) (t traversal, ok bool) {
	runtime.GC()
	t = traversal{kernel: j.want.kernel, edges: j.want.edges, span: -1}
	if rec != nil {
		t.span = rec.begin("core."+j.want.kernel, req)
	}
	t0 := time.Now()
	got, st, err := j.run()
	t.dur = time.Since(t0)
	if rec != nil {
		rec.end(t.span)
	}
	t.stats = st
	if err != nil || !j.want.matches(got) {
		fmt.Fprintf(os.Stderr, "perfbench: %s from %d: wrong answer (err=%v)\n", j.want.kernel, j.want.source, err)
		return t, false
	}
	return t, true
}

// warmUp runs every job once, unmeasured, so that the heap and the block
// cache are settled and every measured cycle starts from the same state.
// It returns the number of wrong answers.
func warmUp(jobs []job) (failed int) {
	for _, j := range jobs {
		if _, ok := call(j, nil, -1); !ok {
			failed++
		}
	}
	return failed
}

// runJobs runs whole cycles through jobs, one traversal at a time, for up
// to d: a cycle starts only if a cycle as long as the last one still ends
// within d, and at least one cycle runs. Whole cycles keep every kernel's
// share of the samples fixed.
func runJobs(jobs []job, d time.Duration, rec *recorder) (trs []traversal, failed int) {
	start := time.Now()
	var cycle time.Duration
	for i := 0; i == 0 || time.Since(start)+cycle <= d; i++ {
		c0 := time.Now()
		for _, j := range jobs {
			t, ok := call(j, rec, len(trs))
			if !ok {
				failed++
			}
			t.cycle = i
			trs = append(trs, t)
		}
		cycle = time.Since(c0)
	}
	return trs, failed
}

// kernelJob runs one kernel through the engine's package functions.
func kernelJob(g graph.Adjacency[uint32], want *answer, cfg core.Config) job {
	return job{want: want, run: func() ([]graph.Dist, core.Stats, error) {
		switch want.kernel {
		case "bfs":
			r, err := core.BFS(g, want.source, cfg)
			if err != nil {
				return nil, core.Stats{}, err
			}
			return r.Level, r.Stats, nil
		case "sssp":
			r, err := core.SSSP(g, want.source, cfg)
			if err != nil {
				return nil, core.Stats{}, err
			}
			return r.Dist, r.Stats, nil
		default:
			r, err := core.CC(g, cfg)
			if err != nil {
				return nil, core.Stats{}, err
			}
			return ccLabels(r.ID), r.Stats, nil
		}
	}}
}

// batchReport turns measured traversals into the end-to-end metrics and
// the core.* layer metrics. teps is the median over cycles of the cycle's
// edges over its traversal time, and latency_ms_p95 the median over cycles
// of the cycle's p95, so a short stall of the host moves one cycle, not the
// result. With a recorder, core.self_frac is the mean share of a
// traversal's wall time with no device read in flight.
func batchReport(trs []traversal, failed int, rec *recorder) *report {
	v := make(map[string]float64)
	var edges, visits float64
	var durs, pushes, imb, peak, maxq []float64
	perKernel := map[string][]float64{}
	cycleEdges, cycleSecs := map[int]float64{}, map[int]float64{}
	cycleDurs := map[int][]float64{}
	for _, t := range trs {
		edges += float64(t.edges)
		visits += float64(t.stats.Visits)
		cycleEdges[t.cycle] += float64(t.edges)
		cycleSecs[t.cycle] += t.dur.Seconds()
		cycleDurs[t.cycle] = append(cycleDurs[t.cycle], t.dur.Seconds())
		durs = append(durs, t.dur.Seconds())
		perKernel[t.kernel] = append(perKernel[t.kernel], t.dur.Seconds())
		pushes = append(pushes, float64(t.stats.Pushes))
		imb = append(imb, t.stats.Imbalance())
		peak = append(peak, float64(t.stats.PeakOutstanding))
		maxq = append(maxq, float64(t.stats.MaxQueue))
	}
	var cycleTEPS, cycleP95 []float64
	for c, e := range cycleEdges {
		cycleTEPS = append(cycleTEPS, ratio(e, cycleSecs[c]))
		cycleP95 = append(cycleP95, quantile(cycleDurs[c], 0.95))
	}
	v["teps"] = quantile(cycleTEPS, 0.5)
	v["traversal_s_p50"] = quantile(durs, 0.5)
	v["latency_ms_p50"] = 1000 * quantile(durs, 0.5)
	v["latency_ms_p95"] = 1000 * quantile(cycleP95, 0.5)
	v["goodput"] = float64(len(trs)-failed) / float64(len(trs))
	for _, k := range []string{"bfs", "sssp", "cc"} {
		v["core."+k+"_s_p50"] = quantile(perKernel[k], 0.5)
	}
	v["core.visits_per_edge"] = ratio(visits, edges)
	v["core.pushes"] = mean(pushes)
	v["core.imbalance"] = mean(imb)
	v["core.peak_outstanding"] = mean(peak)
	v["core.max_queue"] = mean(maxq)
	v["samples.ops"] = float64(len(trs))
	if rec != nil {
		v["core.self_frac"] = selfFrac(trs, rec)
	}
	counts := make([]string, 0, len(perKernel))
	for k, ds := range perKernel {
		counts = append(counts, fmt.Sprintf("%s=%d", k, len(ds)))
	}
	sort.Strings(counts)
	return &report{
		attempted: len(trs),
		failed:    failed,
		values:    v,
		notes:     []string{fmt.Sprintf("samples: %d traversals %v in %d cycles", len(trs), counts, len(cycleTEPS))},
	}
}

// selfFrac averages, over traversals, the share of the traversal's wall
// time not covered by any of its device reads.
func selfFrac(trs []traversal, rec *recorder) float64 {
	type iv struct{ lo, hi int64 }
	reads := map[int][]iv{}
	for _, s := range rec.spans {
		if s.Name == "ssd.ReadAt" && s.Parent >= 0 {
			reads[s.Parent] = append(reads[s.Parent], iv{s.Start, s.End})
		}
	}
	var fracs []float64
	for _, t := range trs {
		ts := rec.spans[t.span]
		rs := reads[t.span]
		sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
		var covered, hi int64 = 0, ts.Start
		for _, r := range rs {
			lo := max(r.lo, hi)
			end := min(r.hi, ts.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		fracs = append(fracs, 1-ratio(float64(covered), float64(ts.End-ts.Start)))
	}
	return mean(fracs)
}

// topDegree returns the k highest-out-degree vertices, lowest id first on
// ties: a seed-independent rule for picking sources in the giant component.
func topDegree(g *graph.CSR[uint32], k int) []uint32 {
	vs := make([]uint32, g.NumVertices())
	for i := range vs {
		vs[i] = uint32(i)
	}
	sort.SliceStable(vs, func(i, j int) bool { return g.Degree(vs[i]) > g.Degree(vs[j]) })
	return vs[:k]
}

// store writes g in the semi-external format to a file in dir.
func store(dir, name string, g *graph.CSR[uint32], cfg sem.WriteConfig) (string, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := sem.Write(w, g, cfg); err != nil {
		_ = f.Close() // the write error is the one to report
		return "", err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", err
	}
	return path, f.Close()
}

func weightedRMAT(scale int, p gen.RMATParams, seed uint64) (*graph.CSR[uint32], error) {
	g, err := gen.RMAT[uint32](scale, avgDegree, p, seed)
	if err != nil {
		return nil, err
	}
	return gen.UniformWeights(g, seed+1)
}

// oracles computes the baseline answer for every (kernel, source) pair.
func oracles(g *graph.CSR[uint32], kernels []string, srcs []uint32) ([]*answer, error) {
	var out []*answer
	for _, s := range srcs {
		for _, k := range kernels {
			a, err := oracle(g, k, s)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
	}
	return out, nil
}

// loadCSR is the in-memory mount: the whole stored graph read into a CSR.
func loadCSR(path string) (*graph.CSR[uint32], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sem.LoadCSR[uint32](f)
}

// runIMRMAT: in-memory BFS and SSSP from the top-degree sources of a
// weighted directed RMAT-B graph, plus CC on an undirected RMAT-B graph.
func runIMRMAT(c *runCtx) (*report, error) {
	g, err := weightedRMAT(imScale, gen.RMATB, c.seed)
	if err != nil {
		return nil, err
	}
	u, err := gen.RMATUndirected[uint32](imCCScale, avgDegree, gen.RMATB, c.seed+2)
	if err != nil {
		return nil, err
	}
	gPath, err := store(c.dir, "im-rmat.asg", g, sem.WriteConfig{})
	if err != nil {
		return nil, err
	}
	uPath, err := store(c.dir, "im-cc.asg", u, sem.WriteConfig{})
	if err != nil {
		return nil, err
	}
	answers, err := oracles(g, []string{"bfs", "sssp"}, topDegree(g, imSources))
	if err != nil {
		return nil, err
	}
	cc, err := oracle(u, "cc", 0)
	if err != nil {
		return nil, err
	}
	answers = append(answers, cc)

	mount := func() (*graph.CSR[uint32], *graph.CSR[uint32], error) {
		dg, err := loadCSR(gPath)
		if err != nil {
			return nil, nil, err
		}
		du, err := loadCSR(uPath)
		return dg, du, err
	}
	setup, err := medianSetup(func() (func(), error) {
		_, _, err := mount()
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	rep, err := measure(c, "teps", true, func(d time.Duration, rec *recorder) (*report, error) {
		dg, du, err := mount()
		if err != nil {
			return nil, err
		}
		jobs := make([]job, len(answers))
		for i, a := range answers {
			adj := dg
			if a.kernel == "cc" {
				adj = du
			}
			jobs[i] = kernelJob(adj, a, core.Config{})
		}
		warmFailed := warmUp(jobs)
		trs, failed := runJobs(jobs, d, rec)
		rep := batchReport(trs, failed, rec)
		rep.attempted += len(jobs)
		rep.failed += warmFailed
		rep.idle = []string{"sem.", "ssd.", "server.", "load.", "samples.device_reads"}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = setup
	return rep, nil
}

// semMount is one semi-external mount: simulated device, block cache, and
// the graph opened over them.
type semMount struct {
	g     *sem.Graph[uint32]
	dev   *ssd.Device
	cache *sem.CachedStore
	file  *os.File
}

// runSEMRMAT: semi-external BFS and SSSP one after another on one mount of
// a raw (v1) weighted RMAT-A graph on the FusionIO profile, with a block
// cache of a quarter of the edge bytes and the prefetcher off.
func runSEMRMAT(c *runCtx) (*report, error) {
	g, err := weightedRMAT(semScale, gen.RMATA, c.seed)
	if err != nil {
		return nil, err
	}
	path, err := store(c.dir, "sem-rmat.asg", g, sem.WriteConfig{})
	if err != nil {
		return nil, err
	}
	answers, err := oracles(g, []string{"bfs", "sssp"}, topDegree(g, semSources))
	if err != nil {
		return nil, err
	}
	cacheBytes := int64(g.NumEdges()) * 8 / 4 // raw record: uint32 target + uint32 weight
	profile := ssd.FusionIO

	mount := func(rec *recorder) (*semMount, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		fb, err := ssd.NewFileBacking(f)
		if err != nil {
			_ = f.Close() // read-only; the backing error is the one to report
			return nil, err
		}
		m := &semMount{dev: ssd.New(profile, fb), file: f}
		var inner sem.Store = m.dev
		if rec != nil {
			inner = &tracedDevice{dev: m.dev, rec: rec}
		}
		if m.cache, err = sem.NewCachedStoreRA(inner, 4096, cacheBytes, semReadahead); err == nil {
			m.g, err = sem.Open[uint32](m.cache)
		}
		if err != nil {
			_ = f.Close() // read-only; the open error is the one to report
			return nil, err
		}
		return m, nil
	}
	setup, err := medianSetup(func() (func(), error) {
		m, err := mount(nil)
		if err != nil {
			return nil, err
		}
		return func() { _ = m.file.Close() }, nil // read-only: nothing to lose on close
	})
	if err != nil {
		return nil, err
	}
	rep, err := measure(c, "teps", true, func(d time.Duration, rec *recorder) (*report, error) {
		m, err := mount(rec)
		if err != nil {
			return nil, err
		}
		defer m.file.Close()
		jobs := make([]job, len(answers))
		for i, a := range answers {
			jobs[i] = kernelJob(m.g, a, core.Config{Workers: semWorkers, SemiSort: true})
		}
		warmFailed := warmUp(jobs)
		devBefore := m.dev.Stats()
		hitsBefore, missBefore := m.cache.Stats()
		start := time.Now()
		trs, failed := runJobs(jobs, d, rec)
		wall := time.Since(start)
		rep := batchReport(trs, failed, rec)
		rep.attempted += len(jobs)
		rep.failed += warmFailed
		hits, misses := m.cache.Stats()
		hits, misses = hits-hitsBefore, misses-missBefore
		rep.values["sem.cache_hit_frac"] = ratio(float64(hits), float64(hits+misses))
		rep.values["sem.cache_misses"] = ratio(float64(misses), float64(len(trs)))
		var edges float64
		for _, t := range trs {
			edges += float64(t.edges)
		}
		deviceLayer(rep.values, profile, devBefore, m.dev.Stats(), wall, len(trs), edges)
		readLayer(rep.values, profile, rec)
		rep.idle = []string{"sem.prefetch.", "server.", "load."}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = setup
	return rep, nil
}
