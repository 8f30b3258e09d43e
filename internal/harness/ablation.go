package harness

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lockfree"
	"repro/internal/sem"
	"repro/internal/ssd"
)

// AblationOversubscription sweeps the worker count far past the physical
// core count, the paper's §IV-A observation that "using as many as 512
// threads on 16 cores offers substantial benefit" because each worker owns a
// queue and more queues mean less lock contention.
func AblationOversubscription(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: thread oversubscription (async BFS, RMAT-A)",
		Note:  "per-thread queues: more workers = less queue contention (paper §IV-A)",
		Cols:  []string{"workers", "time(s)", "visits", "pushes", "maxQueue"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	adj := o.wrap(g)
	for _, w := range []int{1, 4, 16, 64, 256, 512, 1024} {
		var res *core.BFSResult[uint32]
		dur, err := timeIt(func() error {
			var err error
			res, err = core.BFS[uint32](adj, src, core.Config{Workers: w})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", w), Seconds(dur),
			fmt.Sprintf("%d", res.Stats.Visits), fmt.Sprintf("%d", res.Stats.Pushes),
			fmt.Sprintf("%d", res.Stats.MaxQueue))
		o.logf("ablation-oversub: workers=%d done\n", w)
	}
	return t, nil
}

// AblationHash compares the default near-uniform Fibonacci queue-selection
// hash against an identity hash (paper §III-A: "a near-uniform hash function
// may improve load balance amongst the visitor queues as high-cost vertices
// will be uniformly distributed").
func AblationHash(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: queue-selection hash (async CC, RMAT-B)",
		Cols:  []string{"hash", "workers", "time(s)", "visits"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMATUndirected[uint32](scale, o.Degree, gen.RMATB, o.Seed)
	if err != nil {
		return nil, err
	}
	adj := o.wrap(g)
	hashes := []struct {
		Name string
		Fn   func(uint64) uint64
	}{
		{"fibonacci", core.FibHash},
		{"identity", core.IdentityHash},
	}
	for _, h := range hashes {
		for _, w := range []int{16, 512} {
			var res *core.CCResult[uint32]
			dur, err := timeIt(func() error {
				var err error
				res, err = core.CC[uint32](adj, core.Config{Workers: w, Hash: h.Fn})
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Add(h.Name, fmt.Sprintf("%d", w), Seconds(dur), fmt.Sprintf("%d", res.Stats.Visits))
			o.logf("ablation-hash: %s workers=%d done\n", h.Name, w)
		}
	}
	return t, nil
}

// AblationSemiSort measures the device-read savings of the secondary
// vertex-id sort key on semi-external traversal (paper §IV-C: semi-sorting
// "increases access locality to the storage devices").
func AblationSemiSort(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SEM semi-sort locality (async BFS, RMAT-A, FusionIO)",
		Cols:  []string{"semiSort", "time(s)", "devReads", "cacheHit%"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	for _, sorted := range []bool{true, false} {
		sg, dev, cache, err := semGraph(o, g, ssd.FusionIO)
		if err != nil {
			return nil, err
		}
		dur, err := timeIt(func() error {
			_, err := core.BFS[uint32](sg, src, core.Config{Workers: o.SEMThreads, SemiSort: sorted})
			return err
		})
		if err != nil {
			return nil, err
		}
		hits, misses := cache.Stats()
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = 100 * float64(hits) / float64(hits+misses)
		}
		t.Add(fmt.Sprintf("%v", sorted), Seconds(dur),
			fmt.Sprintf("%d", dev.Stats().Reads), fmt.Sprintf("%.1f", hitRate))
		o.logf("ablation-semisort: sorted=%v done\n", sorted)
	}
	return t, nil
}

// AblationCache sweeps the semi-external block-cache budget, exposing how
// the paper's implicit OS-page-cache capacity governs SEM performance.
func AblationCache(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SEM cache budget (async BFS, RMAT-A, Intel)",
		Cols:  []string{"cacheFrac", "time(s)", "devReads", "cacheHit%"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	for _, frac := range []int64{2, 4, 8, 16, 64} {
		opts := o
		opts.CacheFrac = frac
		sg, dev, cache, err := semGraph(opts, g, ssd.Intel)
		if err != nil {
			return nil, err
		}
		dur, err := timeIt(func() error {
			_, err := core.BFS[uint32](sg, src, core.Config{Workers: o.SEMThreads, SemiSort: true})
			return err
		})
		if err != nil {
			return nil, err
		}
		hits, misses := cache.Stats()
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = 100 * float64(hits) / float64(hits+misses)
		}
		t.Add(fmt.Sprintf("1/%d", frac), Seconds(dur),
			fmt.Sprintf("%d", dev.Stats().Reads), fmt.Sprintf("%.1f", hitRate))
		o.logf("ablation-cache: frac=1/%d done\n", frac)
	}
	return t, nil
}

// AblationCoarsen sweeps Δ-style priority coarsening on weighted SSSP: wider
// buckets cheapen heap ordering and lengthen semi-sorted runs at the cost of
// extra label corrections.
func AblationCoarsen(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: Δ-style priority coarsening (async SSSP, RMAT-A, UW)",
		Cols:  []string{"shiftBits", "time(s)", "visits", "pushes"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	g, err = gen.UniformWeights(g, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	adj := o.wrap(g)
	for _, shift := range []uint8{0, 4, 8, 12, 16} {
		var res *core.SSSPResult[uint32]
		dur, err := timeIt(func() error {
			var err error
			res, err = core.SSSP[uint32](adj, src, core.Config{
				Workers: 64, SemiSort: true, CoarseShift: shift,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", shift), Seconds(dur),
			fmt.Sprintf("%d", res.Stats.Visits), fmt.Sprintf("%d", res.Stats.Pushes))
		o.logf("ablation-coarsen: shift=%d done\n", shift)
	}
	return t, nil
}

// AblationEngine compares the paper's ownership-hashed engine against the
// lock-free alternative (atomic CAS relaxation + work stealing) and the
// bucket-queue variant, quantifying the design choices of §III-A.
func AblationEngine(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: engine design (BFS, RMAT-A)",
		Note:  "ownership = hash-routed queues, plain writes; lockfree = CAS labels + stealing; bucket = FIFO buckets per level",
		Cols:  []string{"engine", "workers", "time(s)", "visits", "extra"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	adj := o.wrap(g)
	for _, w := range []int{16, 512} {
		var res *core.BFSResult[uint32]
		dur, err := timeIt(func() error {
			var err error
			res, err = core.BFS[uint32](adj, src, core.Config{Workers: w})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add("ownership-heap", fmt.Sprintf("%d", w), Seconds(dur),
			fmt.Sprintf("%d", res.Stats.Visits), "")

		dur, err = timeIt(func() error {
			var err error
			res, err = core.BFS[uint32](adj, src, core.Config{Workers: w, Queue: core.QueueBucket})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add("ownership-bucket", fmt.Sprintf("%d", w), Seconds(dur),
			fmt.Sprintf("%d", res.Stats.Visits), "")

		var lf *lockfree.Result
		dur, err = timeIt(func() error {
			var err error
			lf, err = lockfree.BFS(adj, src, lockfree.Config{Workers: w})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add("lockfree-steal", fmt.Sprintf("%d", w), Seconds(dur),
			fmt.Sprintf("%d", lf.Stats.Visits),
			fmt.Sprintf("steals=%d casFail=%d", lf.Stats.Steals, lf.Stats.CASFail))
		o.logf("ablation-engine: workers=%d done\n", w)
	}
	return t, nil
}

// AblationMailbox compares batched mailbox delivery against lock-per-push on
// the asynchronous BFS: each producer buffers visitors per destination owner
// and delivers a full bucket under one lock acquisition and one condvar
// signal, amortizing the destination queue's synchronization over Batch items.
func AblationMailbox(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: mailbox batching (async BFS, RMAT-A)",
		Note:  "batch=1 locks the destination queue per push; batch>1 delivers per-owner buffers in one acquisition",
		Cols:  []string{"batch", "workers", "time(s)", "visits", "peakOutstanding"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	adj := o.wrap(g)
	for _, batch := range []int{1, 16, core.DefaultBatch, 256} {
		for _, w := range []int{16, 512} {
			var res *core.BFSResult[uint32]
			dur, err := timeIt(func() error {
				var err error
				res, err = core.BFS[uint32](adj, src, core.Config{Workers: w, Batch: batch})
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprintf("%d", batch), fmt.Sprintf("%d", w), Seconds(dur),
				fmt.Sprintf("%d", res.Stats.Visits), fmt.Sprintf("%d", res.Stats.PeakOutstanding))
			o.logf("ablation-mailbox: batch=%d workers=%d done\n", batch, w)
		}
	}
	return t, nil
}

// AblationPrefetch sweeps the semi-external asynchronous I/O pipeline: the
// pop-window size (core.Config.Prefetch) against the span-coalescing gap
// (sem.PrefetchConfig.MaxGap), per device profile. The graph is mounted on
// the raw device with no block cache, so the devReads column is exactly the
// number of ReadAt operations the traversal issued and the coalescing effect
// is undiluted: window 0 pays one latency term per visited vertex, a window
// with a generous gap pays one per span. The v/span column is the coalescing
// rate (window vertices covered by one device read); gapB is the bytes read
// only to bridge near-contiguous extents.
func AblationPrefetch(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SEM prefetch pipeline (async BFS, RMAT-A, raw device)",
		Note: fmt.Sprintf("no block cache; %d workers; window = pop-window size, gap = coalescing slack (bytes)",
			o.SEMThreads),
		Cols: []string{"profile", "window", "gap", "time(s)", "devReads", "avgRead(B)", "v/span", "consumed%", "gapMB"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	var buf bytes.Buffer
	if err := sem.WriteCSR(&buf, g); err != nil {
		return nil, err
	}
	type setting struct{ window, gap int }
	settings := []setting{
		{0, 0},
		{16, 0},
		{16, 4096},
		{16, sem.DefaultPrefetchGap},
		{64, sem.DefaultPrefetchGap},
	}
	for _, p := range ssd.Profiles {
		for _, s := range settings {
			dev := ssd.New(p, &ssd.MemBacking{Data: buf.Bytes()})
			sg, err := sem.Open[uint32](dev)
			if err != nil {
				return nil, err
			}
			if s.window > 1 {
				sg.EnablePrefetch(sem.PrefetchConfig{MaxGap: s.gap})
			}
			dur, err := timeIt(func() error {
				_, err := core.BFS[uint32](sg, src, core.Config{
					Workers: o.SEMThreads, SemiSort: true, Prefetch: s.window,
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			st := dev.Stats()
			vps, consumed, gapMB := "-", "-", "-"
			if ps := sg.PrefetchStats(); s.window > 1 {
				vps = fmt.Sprintf("%.1f", ps.VertsPerSpan())
				consumed = fmt.Sprintf("%.0f%%", 100*ps.ConsumedFrac())
				gapMB = fmt.Sprintf("%.1f", float64(ps.GapBytes)/(1<<20))
			}
			t.Add(p.Name, fmt.Sprintf("%d", s.window), fmt.Sprintf("%d", s.gap),
				Seconds(dur), fmt.Sprintf("%d", st.Reads),
				fmt.Sprintf("%.0f", st.AvgReadBytes()), vps, consumed, gapMB)
			o.logf("ablation-prefetch: %s window=%d gap=%d done\n", p.Name, s.window, s.gap)
		}
	}
	return t, nil
}

// AblationStripe sweeps RAID-0 stripe width at fixed aggregate parallelism:
// the paper's configurations are all 4-member software RAID 0 arrays, and
// striping is what lets commodity SATA SSDs reach array-level IOPS.
func AblationStripe(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: RAID-0 stripe width (SEM BFS, RMAT-A, FusionIO-class array)",
		Note:  "per-card channels = aggregate/cards; 64 KiB chunks (paper: 4-card software RAID 0)",
		Cols:  []string{"cards", "time(s)", "devReads"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	var buf bytes.Buffer
	if err := sem.WriteCSR(&buf, g); err != nil {
		return nil, err
	}
	for _, cards := range []int{1, 2, 4} {
		// Fixed per-card hardware: stripe width multiplies available
		// parallelism, as adding cards to the array did for the authors.
		card := ssd.CardProfile(ssd.FusionIO, 4)
		arr, err := ssd.NewRAID0Array(card, cards, 64*1024, &ssd.MemBacking{Data: buf.Bytes()})
		if err != nil {
			return nil, err
		}
		cache, err := sem.NewCachedStoreRA(arr, 4096, int64(buf.Len())/o.CacheFrac, o.Readahead)
		if err != nil {
			return nil, err
		}
		sg, err := sem.Open[uint32](cache)
		if err != nil {
			return nil, err
		}
		dur, err := timeIt(func() error {
			_, err := core.BFS[uint32](sg, src, core.Config{Workers: o.SEMThreads, SemiSort: true})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", cards), Seconds(dur), fmt.Sprintf("%d", arr.Stats().Reads))
		o.logf("ablation-stripe: cards=%d done\n", cards)
	}
	return t, nil
}

// AblationSSSP compares the three parallel shortest-path disciplines:
// serial Dijkstra (total order), Δ-stepping (bucketed order with barriers),
// and the paper's fully asynchronous label-correcting traversal.
func AblationSSSP(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: SSSP discipline (RMAT-A, UW weights)",
		Note:  "Dijkstra = total order; Δ-stepping = bucket barriers; async = no ordering, label correction",
		Cols:  []string{"algorithm", "time(s)"},
	}
	scale := o.Scales[len(o.Scales)-1]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	g, err = gen.UniformWeights(g, o.Seed)
	if err != nil {
		return nil, err
	}
	src := pickSource(g)
	adj := o.wrap(g)

	dur, err := timeIt(func() error {
		_, _, err := baseline.SerialDijkstra[uint32](adj, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Add("dijkstra", Seconds(dur))
	for _, delta := range []uint64{1 << 8, 1 << 12, 1 << 16} {
		dur, err := timeIt(func() error {
			_, err := baseline.DeltaStepping[uint32](adj, src, delta, o.SyncWorkers)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("delta-stepping Δ=2^%d", log2(delta)), Seconds(dur))
		o.logf("ablation-sssp: delta=%d done\n", delta)
	}
	for _, w := range []int{16, 512} {
		dur, err := timeIt(func() error {
			_, err := core.SSSP[uint32](adj, src, core.Config{Workers: w})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("async %d workers", w), Seconds(dur))
	}
	return t, nil
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// AblationWriteAsymmetry measures the paper's §II-D flash property that
// "writes are more costly than reads": serializing a graph onto each device
// (the build path) versus reading it back (the traversal path).
func AblationWriteAsymmetry(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: flash write/read asymmetry (graph build vs load, RMAT-A)",
		Note:  "writes charge WriteLatency (2.5-3x ReadLatency per §II-D); 64 KiB transfers; times are wall clock, write/read is the device model's charged service time",
		Cols:  []string{"device", "write(s)", "read(s)", "write/read"},
	}
	scale := o.SEMScales[0]
	g, err := gen.RMAT[uint32](scale, o.Degree, gen.RMATA, o.Seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sem.WriteCSR(&buf, g); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	for _, p := range ssd.Profiles {
		dev := ssd.New(p, &ssd.MemBacking{})
		const chunk = 64 * 1024
		writeTime, err := timeIt(func() error {
			for off := 0; off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				if _, err := dev.WriteAt(data[off:end], int64(off)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		readTime, err := timeIt(func() error {
			buf := make([]byte, chunk)
			for off := 0; off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				if _, err := dev.ReadAt(buf[:end-off], int64(off)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The ratio comes from the model's charged service time, not the wall
		// clock: sleep overshoot on a loaded host inflates the cheaper reads
		// proportionally more and squeezes a wall-clock ratio toward 1.
		st := dev.Stats()
		t.Add(p.Name, Seconds(writeTime), Seconds(readTime), Ratio(st.WriteService, st.ReadService))
		o.logf("ablation-write: %s done\n", p.Name)
	}
	return t, nil
}

// AblationDirection compares forced top-down, forced bottom-up, and the
// frontier-adaptive hybrid controller on semi-external BFS (Table IV's
// FusionIO profile). Scale-free RMAT frontiers go dense within a few phases,
// so bottom-up in-edge scans settle most vertices from a handful of
// sequential device spans; high-diameter chain/grid frontiers never cross the
// α threshold and must stay top-down (the hybrid guard rows). Forced
// bottom-up is omitted on the high-diameter rows — scanning every unvisited
// vertex per phase is quadratic there, which is exactly why the controller
// exists. Non-top-down mounts carry the on-flash in-edge section; top-down
// rows mount the historical layout.
func AblationDirection(o Options) (*Table, error) {
	t := &Table{
		Title: "Ablation: traversal direction (SEM BFS, FusionIO)",
		Note:  "α/β derived per graph from degree stats; td/bu = phase counts, scanSpans = coalesced bottom-up degree-array reads",
		Cols:  []string{"graph", "direction", "time(s)", "devReads", "readMB", "td", "bu", "switch", "scanSpans"},
	}
	scale := o.SEMScales[len(o.SEMScales)-1]
	all := []core.Direction{core.DirectionTopDown, core.DirectionBottomUp, core.DirectionHybrid}
	guard := []core.Direction{core.DirectionTopDown, core.DirectionHybrid}
	type input struct {
		name string
		g    *graph.CSR[uint32]
		src  uint32
		dirs []core.Direction
	}
	var inputs []input
	for _, variant := range rmatVariants {
		g, err := gen.RMAT[uint32](scale, o.Degree, variant.Params, o.Seed)
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, input{fmt.Sprintf("%s 2^%d", variant.Name, scale), g, pickSource(g), all})
	}
	chain, err := gen.Chain[uint32](1 << scale)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, input{fmt.Sprintf("chain 2^%d", scale), chain, 0, guard})
	side := uint64(1) << (scale / 2)
	grid, err := gen.Grid[uint32](side, side)
	if err != nil {
		return nil, err
	}
	inputs = append(inputs, input{fmt.Sprintf("grid %dx%d", side, side), grid, 0, guard})

	// The scan-phase double buffering (and its ScanSpans/ScanBytes counters)
	// lives in the prefetcher, so the ablation always mounts with the pipeline
	// on — the direction comparison should not also toggle I/O overlap.
	if o.Prefetch <= 1 {
		o.Prefetch, o.PrefetchGap = 64, sem.DefaultPrefetchGap
	}
	for _, in := range inputs {
		for _, dir := range in.dirs {
			opts := o
			opts.Direction = dir
			cfg := opts.semBFSConfig(in.g)
			var stats core.Stats
			dur, io, err := timeSEM(opts, in.g, ssd.FusionIO, func(adj graph.Adjacency[uint32]) error {
				res, err := core.BFS[uint32](adj, in.src, cfg)
				if err == nil {
					stats = res.Stats
				}
				return err
			})
			if err != nil {
				return nil, err
			}
			t.Add(in.name, dir.String(), Seconds(dur),
				fmt.Sprintf("%d", io.Device.Reads),
				fmt.Sprintf("%.1f", float64(io.Device.BytesRead)/(1<<20)),
				fmt.Sprintf("%d", stats.TopDownPhases),
				fmt.Sprintf("%d", stats.BottomUpPhases),
				fmt.Sprintf("%d", stats.DirectionSwitches),
				fmt.Sprintf("%d", io.Prefetch.ScanSpans))
			o.logf("ablation-direction: %s %s done\n", in.name, dir)
		}
	}
	return t, nil
}

// Ablations runs every ablation study.
func Ablations(o Options) ([]*Table, error) {
	var tables []*Table
	for _, fn := range []func(Options) (*Table, error){
		AblationOversubscription, AblationHash, AblationSemiSort, AblationCache,
		AblationCoarsen, AblationEngine, AblationMailbox, AblationPrefetch,
		AblationStripe, AblationSSSP, AblationWriteAsymmetry, AblationDirection,
	} {
		tbl, err := fn(o)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}

// Figure2 demonstrates the worst-case serialized traversal of Figure 2: on a
// chain graph the asynchronous traversal cannot exploit parallelism, so added
// workers do not help — the paper's §III-B1 bound discussion.
func Figure2(o Options) (*Table, error) {
	t := &Table{
		Title: "Figure 2: worst-case chain graph (no path parallelism)",
		Note:  "async BFS on a directed chain: worker count cannot help (§III-B1)",
		Cols:  []string{"workers", "time(s)", "visits"},
	}
	n := uint64(1) << o.Scales[0]
	g, err := gen.Chain[uint32](n)
	if err != nil {
		return nil, err
	}
	adj := o.wrap(g)
	for _, w := range []int{1, 16, 512} {
		var res *core.BFSResult[uint32]
		dur, err := timeIt(func() error {
			var err error
			res, err = core.BFS[uint32](adj, 0, core.Config{Workers: w})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", w), Seconds(dur), fmt.Sprintf("%d", res.Stats.Visits))
	}
	return t, nil
}

// All runs every experiment in paper order and returns the tables.
func All(o Options) ([]*Table, error) {
	type exp struct {
		name string
		fn   func(Options) (*Table, error)
	}
	var tables []*Table
	for _, e := range []exp{
		{"fig1", Figure1}, {"fig2", Figure2},
		{"table1", Table1}, {"table2", Table2}, {"table3", Table3},
		{"table4", Table4}, {"table5", Table5},
	} {
		start := time.Now()
		tbl, err := e.fn(o)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", e.name, err)
		}
		o.logf("%s finished in %s\n", e.name, time.Since(start).Round(time.Millisecond))
		tables = append(tables, tbl)
	}
	abl, err := Ablations(o)
	if err != nil {
		return nil, err
	}
	return append(tables, abl...), nil
}
