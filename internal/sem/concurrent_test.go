package sem

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// The query service mounts one semi-external store and runs many traversals
// over it at once, so every layer under graph.Adjacency — the sem.Graph
// decoder, the sharded block cache with singleflight, the prefetcher, and
// the simulated device's channel pool — must tolerate concurrent readers.
// These tests pin that contract directly at the sem layer, under -race in CI.

// TestConcurrentTraversalsSharedStore runs many simultaneous traversals
// (mixed BFS and SSSP, distinct sources) over one block-cached store on one
// simulated device and checks every result against a single-traversal run.
func TestConcurrentTraversalsSharedStore(t *testing.T) {
	g, err := gen.RMAT[uint32](9, 8, gen.RMATA, 21)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := gen.UniformWeights(g, 13)
	if err != nil {
		t.Fatal(err)
	}
	back := writeToMem(t, weighted)
	dev := fastDevice(back)
	cache, err := NewCachedStoreRA(dev, 4096, 1<<19, 1)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Open[uint32](cache)
	if err != nil {
		t.Fatal(err)
	}

	const traversals = 8
	cfg := core.Config{Workers: 8, Prefetch: 32}
	wantBFS := make([]*core.BFSResult[uint32], traversals)
	wantSSSP := make([]*core.SSSPResult[uint32], traversals)
	for i := range wantBFS {
		src := uint32(i * 3)
		if wantBFS[i], err = core.BFS[uint32](weighted, src, cfg); err != nil {
			t.Fatal(err)
		}
		if wantSSSP[i], err = core.SSSP[uint32](weighted, src, cfg); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*traversals)
	fail := func(err error) { errs <- err }
	for i := 0; i < traversals; i++ {
		src := uint32(i * 3)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := core.BFS[uint32](sg, src, cfg)
			if err != nil {
				fail(err)
				return
			}
			for v := range got.Level {
				if got.Level[v] != wantBFS[i].Level[v] {
					t.Errorf("bfs %d: level[%d] = %d, want %d", i, v, got.Level[v], wantBFS[i].Level[v])
					return
				}
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := core.SSSP[uint32](sg, src, cfg)
			if err != nil {
				fail(err)
				return
			}
			for v := range got.Dist {
				if got.Dist[v] != wantSSSP[i].Dist[v] {
					t.Errorf("sssp %d: dist[%d] = %d, want %d", i, v, got.Dist[v], wantSSSP[i].Dist[v])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	hits, misses := cache.Stats()
	if hits+misses == 0 {
		t.Fatal("block cache untouched; traversals did not share the store")
	}
	if st := dev.Stats(); st.Reads == 0 {
		t.Fatal("device reads = 0; store never reached the device")
	}
}

// TestConcurrentTraversalsUncachedDevice hits the raw device (no block
// cache) from two simultaneous traversals, exercising the channel pool's
// slot accounting under contention.
func TestConcurrentTraversalsUncachedDevice(t *testing.T) {
	g, err := gen.RMAT[uint32](8, 8, gen.RMATA, 5)
	if err != nil {
		t.Fatal(err)
	}
	back := writeToMem(t, g)
	dev := fastDevice(back)
	sg, err := Open[uint32](dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Workers: 8}
	want, err := core.BFS[uint32](g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := core.BFS[uint32](sg, 0, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			for v := range got.Level {
				if got.Level[v] != want.Level[v] {
					t.Errorf("level[%d] = %d, want %d", v, got.Level[v], want.Level[v])
					return
				}
			}
		}()
	}
	wg.Wait()
}
