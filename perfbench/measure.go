package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ssd"
)

// setupReps is how many times a run mounts its stored graph to report the
// median set-up time.
const setupReps = 21

// phaseFunc measures a workload for d. rec is nil in untraced phases.
type phaseFunc func(d time.Duration, rec *recorder) (*report, error)

// measure runs the workload's measured phase. Untraced, it is one phase of
// the full run length. Traced, the run is split: an untraced half gives the
// reference headline metric, a traced half gives the per-layer metrics, and
// their difference is the tracing overhead. Each phase reports the peak live
// heap it reached.
func measure(c *runCtx, headline string, higherBetter bool, phase phaseFunc) (*report, error) {
	if !c.trace {
		return withHeapPeak(c.seconds, nil, phase)
	}
	base, err := withHeapPeak(c.seconds/2, nil, phase)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := withHeapPeak(c.seconds/2, rec, phase)
	if err != nil {
		return nil, err
	}
	if err := rec.write(c.spans); err != nil {
		return nil, err
	}
	u, t := base.values[headline], traced.values[headline]
	cost := t - u // traced latency above untraced is the cost
	if higherBetter {
		cost = u - t
	}
	traced.values["trace.overhead_frac"] = cost / u
	traced.notes = append(traced.notes,
		fmt.Sprintf("trace overhead: %s traced %.6g - untraced %.6g = %+.6g (%d spans in %s)",
			headline, t, u, t-u, len(rec.spans), c.spans))
	traced.attempted += base.attempted
	traced.failed += base.failed
	return traced, nil
}

// withHeapPeak runs one phase while sampling the live heap, recording the
// peak as heap_live_peak_mb.
func withHeapPeak(d time.Duration, rec *recorder, phase phaseFunc) (*report, error) {
	runtime.GC()
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	rep, err := phase(d, rec)
	close(stop)
	peak := <-done
	if err != nil {
		return nil, err
	}
	rep.values["heap_live_peak_mb"] = float64(peak) / (1 << 20)
	return rep, nil
}

// medianSetup mounts setupReps times and reports the median mount time in
// seconds. Every mount is released before the next.
func medianSetup(mount func() (func(), error)) (float64, error) {
	times := make([]float64, setupReps)
	for i := range times {
		runtime.GC()
		start := time.Now()
		release, err := mount()
		times[i] = time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		release()
	}
	return quantile(times, 0.5), nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one traced interval. Times are nanoseconds since the recorder was
// created; Parent is the index of the enclosing span (-1 for none) and Req
// the operation the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Bytes  int    `json:"bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// open and openReq identify the batch traversal in progress (-1 when
	// none); device reads are attributed to it, which is sound because
	// batch traversals run one at a time.
	open, openReq atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{origin: time.Now()}
	r.open.Store(-1)
	r.openReq.Store(-1)
	return r
}

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

// begin opens the span of a batch traversal.
func (r *recorder) begin(name string, req int) int {
	id := r.add(span{Name: name, Start: r.since(time.Now()), Parent: -1, Req: req})
	r.openReq.Store(int64(req))
	r.open.Store(int64(id))
	return id
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	r.open.Store(-1)
	r.openReq.Store(-1)
	now := r.since(time.Now())
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// tracedDevice sits between a block cache and the simulated device and
// records a span for every device read. It exposes exactly what the cache
// needs (ReadAt and Size), so the cache behaves as over the bare device.
type tracedDevice struct {
	dev *ssd.Device
	rec *recorder
}

func (t *tracedDevice) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := t.dev.ReadAt(p, off)
	end := time.Now()
	t.rec.add(span{Name: "ssd.ReadAt", Start: t.rec.since(start), End: t.rec.since(end),
		Parent: int(t.rec.open.Load()), Req: int(t.rec.openReq.Load()), Bytes: len(p)})
	return n, err
}

func (t *tracedDevice) Size() int64 { return t.dev.Size() }

// deviceLayer fills the ssd.* metrics from the device's counter deltas over
// a phase of the given wall time. ops and edges normalize the counts; the
// busy share charges every read the profile's modeled service time.
func deviceLayer(v map[string]float64, p ssd.Profile, before, after ssd.Stats, wall time.Duration, ops int, edges float64) {
	reads := float64(after.Reads - before.Reads)
	bytes := float64(after.BytesRead - before.BytesRead)
	v["ssd.reads"] = ratio(reads, float64(ops))
	v["ssd.bytes_read"] = ratio(bytes, float64(ops))
	v["ssd.reads_per_edge"] = ratio(reads, edges)
	v["ssd.peak_reads"] = float64(after.PeakReads)
	service := reads*p.ReadLatency.Seconds() + ratio(bytes, float64(p.BytesPerSec))
	v["ssd.busy_frac"] = ratio(service, float64(p.Channels)*wall.Seconds())
	v["sem.bytes_per_edge"] = ratio(bytes, edges)
}

// readLayer fills the per-read device latency metrics from the traced read
// spans of measured traversals: observed time, and the part of it above the
// modeled service time, which is the wait for a device channel.
func readLayer(v map[string]float64, p ssd.Profile, rec *recorder) {
	var read, queue []float64
	if rec != nil {
		for _, s := range rec.spans {
			if s.Name != "ssd.ReadAt" || s.Parent < 0 {
				continue
			}
			obs := time.Duration(s.End - s.Start)
			svc := p.ReadLatency
			if p.BytesPerSec > 0 {
				svc += time.Duration(int64(s.Bytes) * int64(time.Second) / p.BytesPerSec)
			}
			read = append(read, ms(obs))
			queue = append(queue, max(ms(obs-svc), 0))
		}
	}
	v["ssd.read_ms_p50"] = quantile(read, 0.5)
	v["ssd.read_ms_p99"] = quantile(read, 0.99)
	v["ssd.queue_ms_p50"] = quantile(queue, 0.5)
	v["ssd.queue_ms_p99"] = quantile(queue, 0.99)
	v["samples.device_reads"] = float64(len(read))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
