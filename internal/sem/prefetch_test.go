package sem

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
)

// prefetchFixture is a 4-vertex unweighted graph with known extents:
// deg(0)=2, deg(1)=1, deg(2)=3, deg(3)=0. Unweighted uint32 records are
// 4 bytes, so the edge region is [v0: 0..8) [v1: 8..12) [v2: 12..24).
func prefetchFixture(t *testing.T) *graph.CSR[uint32] {
	t.Helper()
	b := graph.NewBuilder[uint32](4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(2, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build(true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkNeighbors(t *testing.T, sg *Graph[uint32], g *graph.CSR[uint32], v uint32, sc *graph.Scratch[uint32]) {
	t.Helper()
	got, _, err := sg.Neighbors(v, sc)
	if err != nil {
		t.Fatalf("Neighbors(%d): %v", v, err)
	}
	want, _, err := g.Neighbors(v, &graph.Scratch[uint32]{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestPrefetchCoalescesWithinGap(t *testing.T) {
	g := prefetchFixture(t)
	back := writeToMem(t, g)
	dev := fastDevice(back)
	sg, err := Open[uint32](dev)
	if err != nil {
		t.Fatal(err)
	}
	// Window {0, 2} skips vertex 1: the extents sit 4 bytes apart. MaxGap 4
	// bridges them into one span whose gap bytes are exactly deg(1) records.
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 4})
	sc := &graph.Scratch[uint32]{}
	base := dev.Stats().Reads
	sg.NeighborsBatch([]uint32{0, 2}, sc)
	checkNeighbors(t, sg, g, 0, sc)
	checkNeighbors(t, sg, g, 2, sc)
	st := sg.PrefetchStats()
	if st.Windows != 1 || st.Vertices != 2 || st.Spans != 1 {
		t.Fatalf("stats = %+v, want 1 window, 2 vertices, 1 span", st)
	}
	if st.GapBytes != 4 {
		t.Fatalf("gap bytes = %d, want 4 (vertex 1's records)", st.GapBytes)
	}
	if st.SpanBytes != 24 {
		t.Fatalf("span bytes = %d, want 24 (whole edge region)", st.SpanBytes)
	}
	if st.Consumed != 2 {
		t.Fatalf("consumed = %d, want 2", st.Consumed)
	}
	if got := dev.Stats().Reads - base; got != 1 {
		t.Fatalf("device reads = %d, want 1 coalesced span", got)
	}
}

func TestPrefetchSplitsBeyondGap(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	// MaxGap 3 cannot bridge the 4-byte hole left by vertex 1: two spans,
	// no gap bytes read.
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 3})
	sc := &graph.Scratch[uint32]{}
	sg.NeighborsBatch([]uint32{0, 2}, sc)
	checkNeighbors(t, sg, g, 0, sc)
	checkNeighbors(t, sg, g, 2, sc)
	st := sg.PrefetchStats()
	if st.Spans != 2 || st.GapBytes != 0 {
		t.Fatalf("stats = %+v, want 2 spans and 0 gap bytes", st)
	}
	if st.SpanBytes != 20 {
		t.Fatalf("span bytes = %d, want 20 (both extents, no hole)", st.SpanBytes)
	}
}

func TestPrefetchDuplicateVertexInWindow(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 0})
	sc := &graph.Scratch[uint32]{}
	// The same vertex twice: overlapping extents fold into one span, and
	// each Neighbors call consumes its own entry.
	sg.NeighborsBatch([]uint32{2, 2}, sc)
	checkNeighbors(t, sg, g, 2, sc)
	checkNeighbors(t, sg, g, 2, sc)
	st := sg.PrefetchStats()
	if st.Spans != 1 || st.Vertices != 2 {
		t.Fatalf("stats = %+v, want 1 span covering 2 window entries", st)
	}
	if st.Consumed != 2 || st.Abandoned != 0 {
		t.Fatalf("consumed=%d abandoned=%d, want 2/0", st.Consumed, st.Abandoned)
	}
}

func TestPrefetchAbandonsUnconsumedEntries(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 0})
	sc := &graph.Scratch[uint32]{}
	sg.NeighborsBatch([]uint32{0, 2}, sc)
	checkNeighbors(t, sg, g, 0, sc) // vertex 2's entry left unread
	sg.NeighborsBatch([]uint32{1}, sc)
	checkNeighbors(t, sg, g, 1, sc)
	st := sg.PrefetchStats()
	if st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1", st.Abandoned)
	}
	if st.Consumed != 2 {
		t.Fatalf("consumed = %d, want 2", st.Consumed)
	}
	// A vertex whose entry was abandoned still reads synchronously.
	checkNeighbors(t, sg, g, 2, sc)
}

func TestPrefetchZeroDegreeAndEmptyWindows(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{})
	sc := &graph.Scratch[uint32]{}
	sg.NeighborsBatch(nil, sc)
	sg.NeighborsBatch([]uint32{3}, sc) // degree 0: no extent, no span
	st := sg.PrefetchStats()
	if st.Windows != 0 || st.Spans != 0 {
		t.Fatalf("stats = %+v, want no windows or spans issued", st)
	}
	if got, _, err := sg.Neighbors(3, sc); err != nil || len(got) != 0 {
		t.Fatalf("Neighbors(3) = %v, %v; want empty", got, err)
	}
}

func TestPrefetchSurfacesReadError(t *testing.T) {
	g := prefetchFixture(t)
	sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	sg.EnablePrefetch(PrefetchConfig{MaxGap: 0})
	// Fail every device read issued after mounting: the span read error must
	// reach the Neighbors caller, matching the synchronous failure policy.
	sg.store = &erroringStore{inner: sg.store, after: 0}
	sc := &graph.Scratch[uint32]{}
	sg.NeighborsBatch([]uint32{0}, sc)
	if _, _, err := sg.Neighbors(0, sc); err == nil {
		t.Fatal("prefetched read error was swallowed")
	}
}

// TestPrefetchTraversalMatchesBaseline runs the full engine with the pipeline
// on, over a raw uncached device, and checks every kernel's results against
// the serial baselines.
func TestPrefetchTraversalMatchesBaseline(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := buildGraph(t, 400, 4000, weighted, 17)
		sg, err := Open[uint32](fastDevice(writeToMem(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		sg.EnablePrefetch(PrefetchConfig{MaxGap: DefaultPrefetchGap})
		for _, cfg := range []core.Config{
			{Workers: 1, SemiSort: true, Prefetch: 4},
			{Workers: 16, SemiSort: true, Prefetch: 8},
			{Workers: 64, SemiSort: true, Prefetch: 64},
		} {
			if weighted {
				res, err := core.SSSP[uint32](sg, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := baseline.SerialDijkstra[uint32](g, 0)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if res.Dist[v] != want[v] {
						t.Fatalf("workers=%d prefetch=%d: dist[%d] = %d, want %d",
							cfg.Workers, cfg.Prefetch, v, res.Dist[v], want[v])
					}
				}
			} else {
				res, err := core.BFS[uint32](sg, 0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := baseline.SerialBFS[uint32](g, 0)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if res.Level[v] != want[v] {
						t.Fatalf("workers=%d prefetch=%d: level[%d] = %d, want %d",
							cfg.Workers, cfg.Prefetch, v, res.Level[v], want[v])
					}
				}
			}
		}
		if st := sg.PrefetchStats(); st.Windows == 0 || st.Consumed == 0 {
			t.Fatalf("weighted=%v: prefetcher never engaged: %+v", weighted, st)
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"0", 0, true},
		{"4096", 4096, true},
		{" 8k ", 8 << 10, true},
		{"8K", 8 << 10, true},
		{"32KiB", 32 << 10, true},
		{"32KB", 32 << 10, true},
		{"2m", 2 << 20, true},
		{"1MiB", 1 << 20, true},
		{"", 0, false},
		{"-1", 0, false},
		{"32GiB", 0, false},
		{"lots", 0, false},
		{"k", 0, false},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseByteSize(%q) succeeded, want error", c.in)
		}
	}
}
