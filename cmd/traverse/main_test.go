package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestValidate(t *testing.T) {
	g := filepath.Join(t.TempDir(), "g.asg")
	if err := os.WriteFile(g, []byte("stub"), 0o644); err != nil {
		t.Fatal(err)
	}
	sharded := filepath.Join(t.TempDir(), "s.asg")
	for k := 0; k < 2; k++ {
		if err := os.WriteFile(sharded+".shard"+string(rune('0'+k)), []byte("stub"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name      string
		path      string
		algo      string
		engine    string
		workers   int
		ranks     int
		sem       bool
		profile   string
		shards    int
		direction string
		gap       string // "" means the flag default
		ok        bool
	}{
		{"valid async bfs", g, "bfs", "async", 512, 16, false, "", 0, "", "", true},
		{"valid bsp cc", g, "cc", "bsp", 8, 4, false, "", 0, "", "", true},
		{"valid sem profile", g, "sssp", "async", 8, 16, true, "Intel", 0, "", "", true},
		{"missing path", "", "bfs", "async", 8, 16, false, "", 0, "", "", false},
		{"nonexistent file", g + ".nope", "bfs", "async", 8, 16, false, "", 0, "", "", false},
		{"unknown algo", g, "pagerank", "async", 8, 16, false, "", 0, "", "", false},
		{"unknown engine", g, "bfs", "quantum", 8, 16, false, "", 0, "", "", false},
		{"sssp has no bsp engine", g, "sssp", "bsp", 8, 16, false, "", 0, "", "", false},
		{"negative workers", g, "bfs", "async", -1, 16, false, "", 0, "", "", false},
		{"zero workers", g, "bfs", "async", 0, 16, false, "", 0, "", "", false},
		{"bsp needs ranks", g, "bfs", "bsp", 8, 0, false, "", 0, "", "", false},
		{"unknown sem profile", g, "bfs", "async", 8, 16, true, "FloppyDisk", 0, "", "", false},
		{"negative shards", g, "bfs", "async", 8, 16, false, "", -1, "", "", false},
		{"shard files present", sharded, "bfs", "async", 8, 16, false, "", 2, "", "", true},
		{"shard files auto-detected", sharded, "bfs", "async", 8, 16, false, "", 0, "", "", true},
		{"shard count exceeds files", sharded, "bfs", "async", 8, 16, false, "", 3, "", "", false},
		{"shards of a plain file", g, "bfs", "async", 8, 16, false, "", 2, "", "", false},
		{"hybrid async bfs", g, "bfs", "async", 8, 16, false, "", 0, "hybrid", "", true},
		{"bottomup async bfs", g, "bfs", "async", 8, 16, false, "", 0, "bottomup", "", true},
		{"explicit topdown", g, "bfs", "async", 8, 16, false, "", 0, "topdown", "", true},
		{"unknown direction", g, "bfs", "async", 8, 16, false, "", 0, "sideways", "", false},
		{"hybrid needs bfs", g, "cc", "async", 8, 16, false, "", 0, "hybrid", "", false},
		{"hybrid needs async", g, "bfs", "serial", 8, 16, false, "", 0, "hybrid", "", false},
		{"topdown on any engine", g, "bfs", "serial", 8, 16, false, "", 0, "topdown", "", true},
		{"plain-byte prefetch gap", g, "bfs", "async", 8, 16, false, "", 0, "", "4096", true},
		{"suffixed prefetch gap", g, "bfs", "async", 8, 16, false, "", 0, "", "32KiB", true},
		{"lowercase k gap", g, "bfs", "async", 8, 16, false, "", 0, "", "8k", true},
		{"unknown gap unit", g, "bfs", "async", 8, 16, false, "", 0, "", "32GiB", false},
		{"negative gap", g, "bfs", "async", 8, 16, false, "", 0, "", "-1", false},
		{"garbage gap", g, "bfs", "async", 8, 16, false, "", 0, "", "lots", false},
	}
	for _, tc := range cases {
		gap := tc.gap
		if gap == "" {
			gap = "512" // stand in for the flag default, which is never empty
		}
		err := validate(tc.path, tc.algo, tc.engine, tc.workers, tc.ranks, tc.sem, tc.profile, tc.shards, tc.direction, gap)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}
