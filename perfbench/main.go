// Command perfbench is the repository benchmark. It builds one workload's
// inputs from a seed, mounts them through the repository's public APIs,
// measures the workload for a fixed time, checks every answer against the
// serial baselines in internal/baseline, and prints one JSON result line.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload im-rmat --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured
// in a traced half-run, plus the tracing overhead against an untraced
// half-run. Workloads, metrics and predictions are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/ssd"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec is the part of BENCHMARK.json the program reads: the metric
// names and units it must report, so the two can never drift apart.
type metricSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// runCtx carries one invocation's arguments to a workload.
type runCtx struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // per-run directory for stored graphs and spans
	spans   string // where a traced run writes its spans
}

// report is what a workload hands back: operation counts and metric values
// keyed by the names in BENCHMARK.json, plus lines for the human summary.
// idle lists name prefixes of per-layer metrics the workload does not
// exercise; they report 0.
type report struct {
	attempted, failed int
	values            map[string]float64
	idle              []string
	notes             []string
}

var workloads = map[string]func(*runCtx) (*report, error){
	"im-rmat":    runIMRMAT,
	"sem-rmat":   runSEMRMAT,
	"serve-zipf": runServeZipf,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: im-rmat, sem-rmat or serve-zipf")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition listing the metrics")
		out     = flag.String("out", ".bench_build", "directory for stored graphs and span files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *spec, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, specPath, out string) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want im-rmat, sem-rmat or serve-zipf)", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec metricSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("parse %s: %w", specPath, err)
	}
	if err := selfTest(); err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c := &runCtx{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		trace:   trace == 1,
		dir:     dir,
		spans:   filepath.Join(out, "spans-"+name+".jsonl"),
	}
	fmt.Printf("env: %s\n", fingerprint())
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	rep, err := fn(c)
	if err != nil {
		return err
	}

	want := spec.EndToEnd
	if c.trace {
		want = spec.PerLayer
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, m := range want {
		v, ok := rep.values[m.Name]
		if !ok && !(c.trace && rep.isIdle(m.Name)) {
			return fmt.Errorf("workload %s produced no value for metric %s", name, m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Printf("  %-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
	fmt.Printf("  %-36s %14.6g frac (%d failed of %d attempted)\n", "error_frac",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Printf("  %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.attempted < 1 || rep.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or answered wrongly", rep.failed, rep.attempted)
	}
	return nil
}

func (r *report) isIdle(name string) bool {
	for _, p := range r.idle {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// fingerprint identifies the host and simulation settings, so results from
// different machines are never compared silently.
func fingerprint() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	var profiles []string
	for _, p := range ssd.Profiles {
		profiles = append(profiles, fmt.Sprintf("%s(ch=%d,lat=%v)", p.Name, p.Channels, p.ReadLatency))
	}
	sort.Strings(profiles)
	return fmt.Sprintf("go=%s GOMAXPROCS=%d nproc=%d cpu=%q ssd.TimeScale=%d profiles=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, ssd.TimeScale,
		strings.Join(profiles, ","))
}
