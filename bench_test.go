// Benchmarks regenerating every table and figure of the paper plus the
// ablation studies called out in DESIGN.md.
//
// Each BenchmarkTableN / BenchmarkFigN runs the corresponding experiment
// end to end (dataset generation is cached across iterations) at the
// quick configuration; run `cmd/fsexp -exp all` for the full-scale
// numbers. The Ablation benchmarks measure
// the design choices: Fenwick-tree vs linear walker selection, FS vs
// distributed FS, alias vs rejection seeding, CSR vs map adjacency, and
// the effect of the FS dimension m on estimation error.
package frontier_test

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"frontier"
	"frontier/internal/experiments"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := experiments.QuickConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// benchGraph builds the shared benchmark graph once.
var benchGraphCache *frontier.Graph

func benchGraph(b *testing.B) *frontier.Graph {
	b.Helper()
	if benchGraphCache == nil {
		benchGraphCache = frontier.BarabasiAlbert(frontier.NewRand(99), 50000, 5)
	}
	return benchGraphCache
}

// BenchmarkAblationWalkerSelection compares the O(log m) Fenwick-tree
// walker selection against the O(m) linear scan inside the FS step loop.
func BenchmarkAblationWalkerSelection(b *testing.B) {
	g := benchGraph(b)
	for _, m := range []int{10, 100, 1000} {
		for _, sel := range []frontier.Selection{frontier.SelectFenwick, frontier.SelectLinear} {
			name := fmt.Sprintf("m=%d/%s", m, sel)
			b.Run(name, func(b *testing.B) {
				fs := &frontier.FrontierSampler{M: m, Selection: sel}
				sess := frontier.NewSession(g, float64(b.N+m), frontier.UnitCosts(), frontier.NewRand(1))
				b.ResetTimer()
				if err := fs.Run(sess, func(u, v int) {}); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkAblationDFS compares the centrally coordinated FS step loop
// against the event-clock distributed variant at equal walker counts.
func BenchmarkAblationDFS(b *testing.B) {
	g := benchGraph(b)
	const m = 100
	// Seed both variants from the same fixed vertices: the DFS budget is
	// continuous time, so uniform seeding (which charges budget units)
	// would conflate the two clocks.
	rng := frontier.NewRand(42)
	seeds := make([]int, m)
	for i := range seeds {
		seeds[i] = rng.Intn(g.NumVertices())
	}
	seeder := frontier.FixedSeeder{Vertices: seeds}
	b.Run("FS", func(b *testing.B) {
		fs := &frontier.FrontierSampler{M: m, Seeder: seeder}
		sess := frontier.NewSession(g, float64(b.N), frontier.UnitCosts(), frontier.NewRand(2))
		b.ResetTimer()
		if err := fs.Run(sess, func(u, v int) {}); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("DFS", func(b *testing.B) {
		dfs := &frontier.DistributedFS{M: m, Seeder: seeder}
		// A time window sized so roughly b.N transition events occur
		// (each walker fires at expected rate ≈ average degree).
		window := float64(b.N) / (float64(m) * g.AverageSymDegree())
		sess := frontier.NewSession(g, window+1, frontier.UnitCosts(), frontier.NewRand(3))
		b.ResetTimer()
		if err := dfs.Run(sess, func(u, v int) {}); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkAblationAlias compares alias-method degree-proportional
// seeding against rejection sampling (propose uniform vertex, accept
// with probability deg/degmax).
func BenchmarkAblationAlias(b *testing.B) {
	g := benchGraph(b)
	b.Run("alias", func(b *testing.B) {
		seeder, err := frontier.NewStationarySeeder(g)
		if err != nil {
			b.Fatal(err)
		}
		sess := frontier.NewSession(g, 1e18, frontier.UnitCosts(), frontier.NewRand(4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := seeder.Seed(sess, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rejection", func(b *testing.B) {
		maxDeg, _ := g.MaxSymDegree()
		rng := frontier.NewRand(5)
		n := g.NumVertices()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for {
				v := rng.Intn(n)
				if rng.Float64()*float64(maxDeg) < float64(g.SymDegree(v)) {
					break
				}
			}
		}
	})
}

// mapAdjacency is a map-based crawl.Source used to quantify what the CSR
// layout buys the walk loop.
type mapAdjacency struct {
	n   int
	adj map[int][]int
}

func (m *mapAdjacency) NumVertices() int         { return m.n }
func (m *mapAdjacency) SymDegree(v int) int      { return len(m.adj[v]) }
func (m *mapAdjacency) SymNeighbor(v, i int) int { return m.adj[v][i] }

// BenchmarkAblationAdjacency compares random-walk throughput on the CSR
// graph against a map-of-slices adjacency.
func BenchmarkAblationAdjacency(b *testing.B) {
	g := benchGraph(b)
	b.Run("csr", func(b *testing.B) {
		sess := frontier.NewSession(g, float64(b.N+1), frontier.UnitCosts(), frontier.NewRand(6))
		rw := &frontier.SingleRW{}
		b.ResetTimer()
		if err := rw.Run(sess, func(u, v int) {}); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("map", func(b *testing.B) {
		ma := &mapAdjacency{n: g.NumVertices(), adj: make(map[int][]int, g.NumVertices())}
		for v := 0; v < g.NumVertices(); v++ {
			nb := make([]int, g.SymDegree(v))
			for i := range nb {
				nb[i] = g.SymNeighbor(v, i)
			}
			ma.adj[v] = nb
		}
		sess := frontier.NewSession(ma, float64(b.N+1), frontier.UnitCosts(), frontier.NewRand(7))
		rw := &frontier.SingleRW{}
		b.ResetTimer()
		if err := rw.Run(sess, func(u, v int) {}); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkRemoteCrawl measures a frontier crawl of a remote graph
// through the HTTP stack with injected per-request latency (the paper's
// access regime: every query is a slow OSN API round trip). It compares
// the per-vertex baseline — batch size 1, no prefetch advice — against
// the batched client with frontier prefetching, and reports the HTTP
// round trips per crawl alongside time/op. The sampled edge sequence is
// identical in both modes (prefetching never touches the RNG); only the
// network schedule changes.
func BenchmarkRemoteCrawl(b *testing.B) {
	g := frontier.BarabasiAlbert(frontier.NewRand(33), 3000, 3)
	const latency = 2 * time.Millisecond
	for _, bc := range []struct {
		name    string
		batched bool
	}{
		{"pervertex", false},
		{"batched", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv := httptest.NewServer(frontier.NewGraphServer("bench", g, nil,
				frontier.WithServerLatency(latency)))
			defer srv.Close()
			var roundtrips int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var opts []frontier.GraphClientOption
				if !bc.batched {
					opts = append(opts, frontier.WithBatchSize(1))
				}
				c, err := frontier.DialGraph(srv.URL, opts...)
				if err != nil {
					b.Fatal(err)
				}
				fs := &frontier.FrontierSampler{M: 50}
				if bc.batched {
					fs.PrefetchEvery = 8
				}
				sess := frontier.NewSession(c, 400, frontier.UnitCosts(), frontier.NewRand(77))
				if err := c.RunSafely(func() error {
					return fs.Run(sess, func(u, v int) {})
				}); err != nil {
					b.Fatal(err)
				}
				roundtrips += c.Roundtrips()
			}
			b.ReportMetric(float64(roundtrips)/float64(b.N), "roundtrips")
		})
	}
}

// BenchmarkMethodObservations measures the observation throughput of
// every job-service sampling method on the shared in-memory graph —
// the sampler-runtime hot path the CI benchmark-regression gate
// watches — on both emission surfaces: the classic per-observation
// callback and the slab-batched hot path (the "/batch" variants),
// which iterates the CSR adjacency by index and recycles fixed
// 512-observation slabs through a pool. Both must report 0 allocs/op
// under -benchmem; the batch gap is the per-observation dispatch cost
// the slab loop eliminates. dfs is excluded: its budget is continuous
// time, so its event count does not scale with b.N like the others.
func BenchmarkMethodObservations(b *testing.B) {
	g := benchGraph(b)
	for _, name := range []string{"fs", "single", "multiple", "mhrw", "rv", "re", "jump"} {
		method, ok := frontier.DefaultJobMethods().Get(name)
		if !ok {
			b.Fatalf("method %s not registered", name)
		}
		newRun := func(b *testing.B) (frontier.ObservationSampler, *frontier.Session) {
			s := method.Build(frontier.JobSpec{Method: name, M: 16, JumpProb: 0.1})
			// Budget 2·b.N+64 covers seeding and the 2-unit edge-query
			// cost of re; the work still scales linearly with b.N.
			sess := frontier.NewSession(g, 2*float64(b.N)+64, frontier.UnitCosts(), frontier.NewRand(10))
			return s, sess
		}
		b.Run(name, func(b *testing.B) {
			s, sess := newRun(b)
			b.ResetTimer()
			if err := s.RunObs(sess, func(o frontier.Observation) {}); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(name+"/batch", func(b *testing.B) {
			s, sess := newRun(b)
			b.ResetTimer()
			if err := s.RunObsBatch(sess, func(batch []frontier.Observation) {}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkObsBatchLogging proves the observability layer stays off
// the batched observation hot path: the slab callback carries the same
// guarded disabled-level slog call the job manager's emitBatch uses (a
// hoisted Enabled check in front of LogAttrs), and the run must still
// report 0 allocs/op — the CI benchmark gate enforces it. An unguarded
// call, or variadic ...any logging, would allocate per slab.
func BenchmarkObsBatchLogging(b *testing.B) {
	g := benchGraph(b)
	logger, err := frontier.NewLogger(io.Discard, slog.LevelWarn, "json")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	method, ok := frontier.DefaultJobMethods().Get("fs")
	if !ok {
		b.Fatal("method fs not registered")
	}
	s := method.Build(frontier.JobSpec{Method: "fs", M: 16})
	sess := frontier.NewSession(g, 2*float64(b.N)+64, frontier.UnitCosts(), frontier.NewRand(10))
	var slabs int64
	b.ResetTimer()
	err = s.RunObsBatch(sess, func(batch []frontier.Observation) {
		slabs++
		if logger.Enabled(ctx, slog.LevelDebug) {
			logger.LogAttrs(ctx, slog.LevelDebug, "slab",
				slog.Int("n", len(batch)), slog.Int64("slabs", slabs))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchSegmentGraph writes the shared benchmark graph to an .fcsr
// segment once, memory-maps it, and returns the mapped graph plus the
// segment path. The mapping stays open for the life of the benchmark
// process; the files live in a fresh OS temp directory.
var (
	benchSegPathCache string
	benchSegmentCache *frontier.GraphSegment
)

func benchSegmentGraph(b *testing.B) (*frontier.Graph, string) {
	b.Helper()
	if benchSegmentCache == nil {
		dir, err := os.MkdirTemp("", "fcsr-bench")
		if err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, "bench.fcsr")
		if err := frontier.SaveGraph(path, benchGraph(b)); err != nil {
			b.Fatal(err)
		}
		seg, err := frontier.OpenGraphSegment(path)
		if err != nil {
			b.Fatal(err)
		}
		benchSegPathCache, benchSegmentCache = path, seg
	}
	return benchSegmentCache.Graph, benchSegPathCache
}

// BenchmarkGraphLoad compares the three ways to bring a hosted graph
// into a process: the zero-copy mmap open of an .fcsr segment, the
// fully validating heap parse of the same segment, and the text
// parser. The mmap open touches only the 256-byte header and the
// O(|V|) offset arrays — it must stay an order of magnitude ahead of
// the text parse, which is the acceptance bar for the segment format.
func BenchmarkGraphLoad(b *testing.B) {
	g := benchGraph(b)
	_, fcsrPath := benchSegmentGraph(b)
	textPath := filepath.Join(filepath.Dir(fcsrPath), "bench.fg")
	if _, err := os.Stat(textPath); err != nil {
		if err := frontier.SaveGraph(textPath, g); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fcsr-mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seg, err := frontier.OpenGraphSegment(fcsrPath)
			if err != nil {
				b.Fatal(err)
			}
			if seg.Graph.NumVertices() != g.NumVertices() {
				b.Fatal("wrong graph")
			}
			if err := seg.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fcsr-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lg, err := frontier.LoadGraph(fcsrPath)
			if err != nil {
				b.Fatal(err)
			}
			if lg.NumVertices() != g.NumVertices() {
				b.Fatal("wrong graph")
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lg, err := frontier.LoadGraph(textPath)
			if err != nil {
				b.Fatal(err)
			}
			if lg.NumVertices() != g.NumVertices() {
				b.Fatal("wrong graph")
			}
		}
	})
}

// BenchmarkSweepFig5 runs one paper Figure 5 sweep per op — 120
// sampling jobs, three aggregations and the figure — in process over
// the scale-0.1 Flickr stand-in, with sweep manifests persisted to a
// temporary directory. It times the sweep layer above the job service:
// DAG scheduling, result encoding and the manifest journal. The
// journal appends one record per node transition, so B/op grows with
// the results once; a manifest rewritten whole on every transition
// shows up here as B/op growing with the square of the node count.
func BenchmarkSweepFig5(b *testing.B) {
	ds, err := frontier.DatasetByName("flickr", frontier.NewRand(1), 0.1)
	if err != nil {
		b.Fatal(err)
	}
	cat := frontier.NewGraphCatalog()
	if err := cat.Add("flickr", ds.Graph, ds.Groups); err != nil {
		b.Fatal(err)
	}
	jm, err := frontier.NewJobManager(ds.Graph, frontier.WithJobWorkers(4), frontier.WithJobResolver(cat))
	if err != nil {
		b.Fatal(err)
	}
	defer jm.Stop()
	dir := b.TempDir()
	sm, err := frontier.NewSweepManager(jm, cat,
		frontier.WithSweepDir(filepath.Join(dir, "sweeps")),
		frontier.WithSweepArtifactDir(filepath.Join(dir, "artifacts")))
	if err != nil {
		b.Fatal(err)
	}
	defer sm.Stop() // before jm.Stop: deferred calls run last-in first-out
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := sm.Submit(frontier.SweepSpec{Artifact: "fig5", Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		wake, stop := sw.Watch()
		for !sw.State().Terminal() {
			<-wake
		}
		stop()
		if st := sw.Status(); st.State != frontier.SweepDone || !st.ChecksPass {
			b.Fatalf("sweep ended %s (checks pass %v): %s", st.State, st.ChecksPass, st.Error)
		}
	}
}

// BenchmarkCrawlMmap drives the slab-batched sampling hot loop over
// the memory-mapped segment instead of the heap graph. The
// devirtualized CSR loop reads the same little-endian arrays either
// way, so per-step cost must match BenchmarkMethodObservations'
// batched variants within noise and stay at 0 allocs/op — a gap here
// means the mapped path fell off the concrete-type fast path.
func BenchmarkCrawlMmap(b *testing.B) {
	mg, _ := benchSegmentGraph(b)
	for _, name := range []string{"fs", "mhrw"} {
		method, ok := frontier.DefaultJobMethods().Get(name)
		if !ok {
			b.Fatalf("method %s not registered", name)
		}
		b.Run(name, func(b *testing.B) {
			s := method.Build(frontier.JobSpec{Method: name, M: 16, JumpProb: 0.1})
			sess := frontier.NewSession(mg, 2*float64(b.N)+64, frontier.UnitCosts(), frontier.NewRand(10))
			b.ResetTimer()
			if err := s.RunObsBatch(sess, func(batch []frontier.Observation) {}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// pipelineCPUProfile captures a CPU profile of BenchmarkPipeline — the
// whole sampler → estimator → monitor pipeline — so CI can upload it
// as an artifact:
//
//	go test -run - -bench BenchmarkPipeline -benchtime=200000x \
//	    -pipeline.cpuprofile pipeline.pprof .
var pipelineCPUProfile = flag.String("pipeline.cpuprofile", "", "write a CPU profile of BenchmarkPipeline to this file")

// BenchmarkPipeline measures the end-to-end estimation hot path: a
// batch-driven sampler feeding a live estimator and convergence
// monitor one slab at a time, exactly as the job service drives
// UsesWalkers-free methods. The cost per observation is sampler step +
// kernel update + monitor update (+ the amortized every-512th
// stop-rule evaluation).
func BenchmarkPipeline(b *testing.B) {
	g := benchGraph(b)
	if *pipelineCPUProfile != "" {
		f, err := os.Create(*pipelineCPUProfile)
		if err != nil {
			b.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			b.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	for _, name := range []string{"single", "mhrw", "jump"} {
		b.Run(name, func(b *testing.B) {
			method, ok := frontier.DefaultJobMethods().Get(name)
			if !ok {
				b.Fatalf("method %s not registered", name)
			}
			est, err := frontier.DefaultEstimators().New("avgdegree", g)
			if err != nil {
				b.Fatal(err)
			}
			rule, err := frontier.ParseStopRule("ess>=1e18") // never fires; keeps rule evaluation live
			if err != nil {
				b.Fatal(err)
			}
			rt := frontier.NewLiveRuntime(est, frontier.NewConvergenceMonitor(frontier.MonitorConfig{}), rule)
			s := method.Build(frontier.JobSpec{Method: name, JumpProb: 0.1})
			sess := frontier.NewSession(g, float64(b.N)+64, frontier.UnitCosts(), frontier.NewRand(11))
			b.ResetTimer()
			if err := s.RunObsBatch(sess, func(batch []frontier.Observation) {
				rt.ObserveBatch(0, batch)
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationDimension measures how the FS dimension m affects
// estimation error at a fixed budget: it reports the geometric-mean
// CNMSE of the degree CCDF (lower is better) as "cnmse" alongside the
// usual time/op. m = 1 degrades to a single walker.
func BenchmarkAblationDimension(b *testing.B) {
	ds, err := frontier.DatasetByName("flickr", frontier.NewRand(8), 0.2)
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	truth := frontier.CCDF(g.DegreeDistribution(frontier.InDeg))
	budget := float64(g.NumVertices()) / 10
	for _, m := range []int{1, 10, 100, 400} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := frontier.NewRand(9)
			ve := frontier.NewVectorError(truth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est := frontier.NewDegreeDist(g, frontier.InDeg)
				sess := frontier.NewSession(g, budget, frontier.UnitCosts(), frontier.NewRand(rng.Uint64()))
				fs := &frontier.FrontierSampler{M: m}
				if err := fs.Run(sess, est.Observe); err != nil {
					b.Fatal(err)
				}
				ve.Add(est.CCDF())
			}
			var gm, count float64
			for i := 0; i < ve.Len(); i++ {
				v := ve.NMSEAt(i)
				if v > 0 && !math.IsNaN(v) {
					gm += math.Log(v)
					count++
				}
			}
			if count > 0 {
				b.ReportMetric(math.Exp(gm/count), "cnmse")
			}
		})
	}
}
