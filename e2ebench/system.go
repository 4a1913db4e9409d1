package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"frontier"
)

// jobWorkers is the job manager's worker pool, and the sweep's
// parallelism: two busy workers fit the 2-core box the defaults target.
const jobWorkers = 2

// workload is one named traffic mix.
type workload struct {
	// graph builds the hosted graph (part of set-up).
	graph func() (*frontier.Graph, *frontier.GroupLabels)
	// warm runs before timing, so lazy set-up and caches are filled.
	warm func(ctx context.Context, sys *system) error
	// window runs the closed loop for cfg.seconds; tr is nil when
	// untraced.
	window func(ctx context.Context, sys *system, cfg config, tr *tracer) (*window, error)
	// layers derives the per-layer metrics from a traced window.
	layers func(sys *system, w *window, rep *report) error
	// persist makes the job manager write checkpoint files. Sweep
	// manifests are written either way.
	persist bool
	// rssOps is how many ops have completed when peak_rss_mb is read:
	// fewer than a window holds, so the figure covers a fixed amount of
	// work and a faster program is not charged for the jobs it retains
	// from the extra ops it completes.
	rssOps int
}

// workloads is the benchmark's set of workloads by name.
var workloads = map[string]*workload{
	"job-stream":   jobStream,
	"sweep-fig5":   sweepFig5,
	"crawl-remote": crawlRemote,
}

// system is one running instance of the service under test.
type system struct {
	g      *frontier.Graph
	name   string // catalog name of g
	avgDeg float64
	ckpt   string // job checkpoint directory, when the workload persists
	url    string

	jobs    *frontier.JobManager
	sweeps  *frontier.SweepManager
	srv     *http.Server
	served  chan struct{}
	ln      *countingListener
	handler *timedHandler
	client  *frontier.GraphClient
}

// setUp builds the graph, starts the service on a loopback listener
// and warms it up, returning the elapsed set-up time in seconds.
func setUp(ctx context.Context, w *workload, dir string) (*system, float64, error) {
	start := time.Now()
	g, groups := w.graph()
	sys, err := startSystem(g, groups, dir, w.persist)
	if err != nil {
		return nil, 0, err
	}
	if err := w.warm(ctx, sys); err != nil {
		sys.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return sys, time.Since(start).Seconds(), nil
}

// startSystem hosts g in a catalog behind a job manager (with a
// checkpoint directory when persist is set) and a sweep manager, and
// serves them.
func startSystem(g *frontier.Graph, groups *frontier.GroupLabels, dir string, persist bool) (*system, error) {
	sys := &system{g: g, name: "bench", ckpt: filepath.Join(dir, "checkpoints")}
	var degSum int64
	for v := 0; v < g.NumVertices(); v++ {
		degSum += int64(g.SymDegree(v))
	}
	sys.avgDeg = float64(degSum) / float64(g.NumVertices())
	if err := os.MkdirAll(sys.ckpt, 0o755); err != nil {
		return nil, err
	}
	cat := frontier.NewGraphCatalog()
	if err := cat.Add(sys.name, g, groups); err != nil {
		return nil, err
	}
	opts := []frontier.JobOption{frontier.WithJobWorkers(jobWorkers), frontier.WithJobResolver(cat)}
	if persist {
		opts = append(opts, frontier.WithJobCheckpointDir(sys.ckpt))
	}
	var err error
	sys.jobs, err = frontier.NewJobManager(nil, opts...)
	if err != nil {
		return nil, err
	}
	sys.sweeps, err = frontier.NewSweepManager(sys.jobs, cat,
		frontier.WithSweepDir(filepath.Join(sys.ckpt, "sweeps")),
		frontier.WithSweepArtifactDir(filepath.Join(dir, "artifacts")))
	if err != nil {
		sys.jobs.Stop()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.sweeps.Stop()
		sys.jobs.Stop()
		return nil, err
	}
	sys.ln = &countingListener{Listener: l}
	sys.handler = &timedHandler{h: frontier.NewCatalogGraphServer(cat,
		frontier.WithServerJobs(sys.jobs), frontier.WithServerSweeps(sys.sweeps))}
	sys.srv = &http.Server{Handler: sys.handler, ReadHeaderTimeout: 10 * time.Second}
	sys.served = make(chan struct{})
	go func() {
		defer close(sys.served)
		_ = sys.srv.Serve(sys.ln) // returns ErrServerClosed on close
	}()
	sys.url = "http://" + l.Addr().String()
	sys.client, err = frontier.DialGraph(sys.url, frontier.WithClientGraph(sys.name))
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// close stops the managers (sweeps before jobs, as graphd does), the
// server and the client's idle connections, and waits for the server.
func (s *system) close() {
	s.sweeps.Stop()
	s.jobs.Stop()
	_ = s.srv.Close()
	<-s.served
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// setTracing turns the listener's byte counter and the handler's timer
// on or off; they only count during traced windows.
func (s *system) setTracing(on bool) {
	s.ln.on.Store(on)
	s.handler.on.Store(on)
}

// opResult is one completed operation of a closed loop.
type opResult struct {
	start, end time.Time
	obs        int64
	rssMB      float64 // the process's peak RSS when the op completed
	err        error   // non-nil: the op failed or failed a correctness check
	detail     any     // the workload's own record of the op
}

// window is the outcome of one measured closed-loop window.
type window struct {
	ops        []opResult // in submission order
	wall       time.Duration
	mem0, mem1 runtime.MemStats
}

// closedLoop runs clients goroutines, each starting its next op only
// after the previous one completed, until seconds have passed; ops in
// flight at the deadline run to completion and count.
func closedLoop(ctx context.Context, seconds float64, clients int, do func(ctx context.Context, client, i int) opResult) *window {
	w := &window{}
	// Start every window with no dirty pages left by set-up or earlier
	// runs, whose writeback would otherwise compete with the window's
	// checkpoint writes.
	syscall.Sync()
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
		byI  = map[int]opResult{}
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				r := do(ctx, c, i)
				r.rssMB = peakRSSMB()
				mu.Lock()
				byI[i] = r
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	runtime.ReadMemStats(&w.mem1)
	for i := 0; i < len(byI); i++ {
		w.ops = append(w.ops, byI[i])
	}
	return w
}

// obs is the number of observations all ops sampled.
func (w *window) obs() int64 {
	var n int64
	for _, op := range w.ops {
		n += op.obs
	}
	return n
}

// endToEnd computes the window's throughput and latency metrics.
func (w *window) endToEnd() map[string]float64 {
	lat := make([]float64, len(w.ops))
	for i, op := range w.ops {
		lat[i] = op.end.Sub(op.start).Seconds()
	}
	return map[string]float64{
		"obs_per_s": float64(w.obs()) / w.wall.Seconds(),
		"op_p50_s":  quantile(lat, 0.5),
		"op_p90_s":  quantile(lat, 0.9),
	}
}

// peakRSSMB is the process's peak RSS when the k-th op of the window
// completed, or when the last one did if there were fewer.
func (w *window) peakRSSMB(k int) float64 {
	rss := make([]float64, len(w.ops))
	for i, op := range w.ops {
		rss[i] = op.rssMB
	}
	if len(rss) == 0 {
		return peakRSSMB()
	}
	// The peak only grows, so the k-th smallest is the k-th completion's.
	sort.Float64s(rss)
	return rss[min(k, len(rss))-1]
}

// print writes the window's op count and latency quantiles to
// standard error: the sample count behind op_p50_s and op_p90_s.
func (w *window) print(kind string) {
	lat := make([]float64, len(w.ops))
	for i, op := range w.ops {
		lat[i] = op.end.Sub(op.start).Seconds()
	}
	fmt.Fprintf(os.Stderr, "e2ebench: %s window: %d ops in %.1f s, latency p10 %.3f p50 %.3f p90 %.3f max %.3f s\n",
		kind, len(w.ops), w.wall.Seconds(), quantile(lat, 0.1), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 1))
}

// processLayers computes the Go runtime's allocation and GC cost per
// observation over the window.
func (w *window) processLayers() map[string]float64 {
	n := float64(w.obs())
	if n == 0 {
		return nil
	}
	return map[string]float64{
		"process.alloc_bytes_per_obs": float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / n,
		"process.gc_cycles_per_kobs":  float64(w.mem1.NumGC-w.mem0.NumGC) / n * 1000,
	}
}

// countingListener counts the bytes its connections carry in both
// directions while on.
type countingListener struct {
	net.Listener
	on    atomic.Bool
	bytes atomic.Int64
}

// Accept wraps each accepted connection in a byte counter.
func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.on.Load() {
		c.l.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.l.on.Load() {
		c.l.bytes.Add(int64(n))
	}
	return n, err
}

// timedHandler times the server's vertex-data requests while on.
type timedHandler struct {
	h  http.Handler
	on atomic.Bool
	ns atomic.Int64
}

// ServeHTTP serves r, timing it when it is a vertex fetch.
func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/vertex") {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	t.ns.Add(int64(time.Since(start)))
}

// span is one timed call the benchmark made into the system.
type span struct {
	TraceID string    `json:"trace_id"`
	Name    string    `json:"name"`
	Parent  string    `json:"parent,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// tracer keeps a traced window's spans, and the server's job and sweep
// timelines they join by trace ID, in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	jobs   []frontier.JobTrace
	sweeps []frontier.SweepTrace
}

// span records one call; a nil tracer records nothing.
func (t *tracer) span(traceID, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{TraceID: traceID, Name: name, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// jobTrace keeps a job's server-side timeline.
func (t *tracer) jobTrace(tr frontier.JobTrace) {
	t.mu.Lock()
	t.jobs = append(t.jobs, tr)
	t.mu.Unlock()
}

// sweepTrace keeps a sweep's server-side timeline.
func (t *tracer) sweepTrace(tr frontier.SweepTrace) {
	t.mu.Lock()
	t.sweeps = append(t.sweeps, tr)
	t.mu.Unlock()
}

// write saves everything recorded as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Spans  []span                `json:"spans"`
		Jobs   []frontier.JobTrace   `json:"jobs"`
		Sweeps []frontier.SweepTrace `json:"sweeps"`
	}{t.spans, t.jobs, t.sweeps}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// eventTime returns the time of the first event named name.
func eventTime(events []frontier.TraceEvent, name string) (time.Time, bool) {
	for _, e := range events {
		if e.Name == name {
			return e.Time, true
		}
	}
	return time.Time{}, false
}

// jobTiming is what a job's server-side timeline says about it.
type jobTiming struct {
	// complete reports whether the queued and running events survived;
	// queueWait and run are only known then.
	complete    bool
	queueWait   time.Duration // queued → running
	run         time.Duration // running → done
	done        time.Time
	checkpoints int64 // checkpoint events, dropped ones included
}

// timeJob reads a job's timeline. A long job overflows the bounded
// ring, which drops its oldest events: queued, running, then
// checkpoints; the drop count restores the checkpoint count.
func timeJob(tr frontier.JobTrace) (jobTiming, error) {
	done, ok := eventTime(tr.Events, string(frontier.JobDone))
	if !ok {
		return jobTiming{}, fmt.Errorf("job %s: trace lacks its done event (%d events, %d dropped)",
			tr.JobID, len(tr.Events), tr.Dropped)
	}
	jt := jobTiming{done: done, checkpoints: tr.Dropped}
	for _, e := range tr.Events {
		if e.Name == "checkpoint" {
			jt.checkpoints++
		}
	}
	queued, okq := eventTime(tr.Events, "queued")
	running, okr := eventTime(tr.Events, "running")
	if okq && okr {
		jt.complete, jt.queueWait, jt.run = true, running.Sub(queued), done.Sub(running)
	}
	if !okq {
		jt.checkpoints--
	}
	if !okr {
		jt.checkpoints--
	}
	return jt, nil
}
