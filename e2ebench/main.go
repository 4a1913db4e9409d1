// Command e2ebench is the repository's end-to-end benchmark. One
// load-generating process starts the whole graph service in process — a
// catalog, a job manager with a checkpoint directory and a sweep
// manager behind NewCatalogGraphServer, served on a real loopback
// listener — and drives one of three closed-loop workloads through the
// public facade and the HTTP client:
//
//	job-stream    two clients submit adaptive-stopping jobs and follow them by SSE
//	sweep-fig5    one client runs the paper's Figure 5 sweep at a time
//	crawl-remote  one client-side FS(m=50) crawl at a time over the vertex API
//
// It checks every operation's output, and prints one JSON object as the
// last line of standard output: the end-to-end metrics of an untraced
// window, or with -trace 1 the per-layer metrics of a separate traced
// window. See README.md for the workloads, metrics and layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	setups   int // set-ups per run; setup_s is their median
	dir      string
}

const (
	// procs is the GOMAXPROCS a run uses unless the GOMAXPROCS
	// environment variable sets it: it fits a 2-core box.
	procs = 2
	// setUps is how many set-ups a run times.
	setUps = 5
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"obs_per_s", "obs/s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"core.sample_ns_per_obs", "ns/obs"},
	{"live.kernel_ns_per_obs", "ns/obs"},
	{"live.monitor_ns_per_obs", "ns/obs"},
	{"live.obs_to_stop", "count"},
	{"jobs.snapshot_ns_per_obs", "ns/obs"},
	{"jobs.self_ns_per_obs", "ns/obs"},
	{"jobs.checkpoints_per_kobs", "1/kobs"},
	{"jobs.checkpoint_bytes", "B"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.notify_lag_ms", "ms"},
	{"netgraph.roundtrips_per_kobs", "1/kobs"},
	{"netgraph.records_per_obs", "1/obs"},
	{"netgraph.cache_hit_ratio", "1"},
	{"netgraph.wire_bytes_per_record", "B"},
	{"netgraph.handler_us_per_roundtrip", "us"},
	{"netgraph.client_us_per_roundtrip", "us"},
	{"sweep.worker_busy_ratio", "1"},
	{"sweep.tail_ms", "ms"},
	{"process.alloc_bytes_per_obs", "B/obs"},
	{"process.gc_cycles_per_kobs", "1/kobs"},
	{"trace.obs_per_s_ratio", "1"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: job-stream, sweep-fig5 or crawl-remote")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; sets every job, sweep and crawl seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "1: run an untraced and a traced window and print per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "e2ebench"), "directory for checkpoints, artifacts and spans")
	flag.Parse()
	cfg.setups = setUps
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(procs)
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runDeadline bounds a whole run, so a hung operation fails the run
// instead of holding it past the harness's limit.
const runDeadline = 170 * time.Second

// run sets up the system, measures the workload and assembles the
// result. The first set-up serves the measured windows; the remaining
// ones only time set-up, after the measurement, so their garbage cannot
// disturb it.
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want job-stream, sweep-fig5 or crawl-remote)", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.setups < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		return nil, fmt.Errorf("bad -seconds %g or -trace %d", cfg.seconds, cfg.trace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	sys, setup0, err := setUp(ctx, w, filepath.Join(work, "setup0"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep, err := measure(ctx, w, sys, cfg)
	sys.close()
	if err != nil {
		return nil, err
	}
	setups := []float64{setup0}
	for i := 1; i < cfg.setups; i++ {
		// Collect the previous system's garbage first, so this set-up is
		// not charged for it; the first set-up starts on an empty heap.
		runtime.GC()
		s, d, err := setUp(ctx, w, filepath.Join(work, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		s.close()
		setups = append(setups, d)
	}
	rep.e2e["setup_s"] = median(setups)

	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: FAILED:", p)
	}
	res := &result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.trace == 1 {
		defs, vals = perLayer, rep.layers
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	printMetrics(cfg, rep)
	return res, nil
}

// measure runs the untraced window and, for a traced run, the traced
// window and the layer split after it.
func measure(ctx context.Context, w *workload, sys *system, cfg config) (*report, error) {
	win, err := w.window(ctx, sys, cfg, nil)
	if err != nil {
		return nil, err
	}
	win.print("untraced")
	rep := &report{e2e: win.endToEnd(), layers: map[string]float64{}}
	rep.add(win)
	rep.e2e["peak_rss_mb"] = win.peakRSSMB(w.rssOps)
	if cfg.trace == 0 {
		return rep, nil
	}
	tr := &tracer{}
	sys.setTracing(true)
	twin, err := w.window(ctx, sys, cfg, tr)
	sys.setTracing(false)
	if err != nil {
		return nil, err
	}
	twin.print("traced")
	rep.add(twin)
	for k, v := range win.processLayers() {
		rep.layers[k] = v
	}
	if untraced := rep.e2e["obs_per_s"]; untraced > 0 {
		rep.layers["trace.obs_per_s_ratio"] = twin.endToEnd()["obs_per_s"] / untraced
	}
	if err := w.layers(sys, twin, rep); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "e2ebench: spans written to", path)
	return rep, nil
}

// report accumulates a run's outcome.
type report struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	problems          []string
}

// add counts a window's operations and failures.
func (r *report) add(w *window) {
	r.attempted += len(w.ops)
	for _, op := range w.ops {
		if op.err != nil {
			r.fail(op.err)
		}
	}
}

// fail records one failed operation or correctness check.
func (r *report) fail(err error) {
	r.failed++
	r.problems = append(r.problems, err.Error())
}

// printMetrics writes every metric to standard error, for people.
func printMetrics(cfg config, rep *report) {
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed=%d: %d ops attempted, %d failed (failed_ratio %.4g)\n",
		cfg.workload, cfg.seed, rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, set := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{endToEnd, rep.e2e}, {perLayer, rep.layers}} {
		for _, d := range set.defs {
			if v, ok := set.vals[d.name]; ok {
				fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty).
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

// mix derives the i-th operation seed from the workload seed
// (splitmix64), so every job, sweep and crawl seed follows from -seed.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FNV-1a over the observation sequence, exactly as the job runner
// hashes it into Status.EdgeHash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashEdge(h uint64, u, v int) uint64 {
	for _, x := range [2]uint64{uint64(u), uint64(v)} {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}
