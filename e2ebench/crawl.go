package main

import (
	"context"
	"fmt"
	"time"

	"frontier"
)

// crawl-remote: one client-side FS(m=50) crawl at a time over the
// vertex API — the paper's access regime, on fsample's classic path
// (DialGraph → FrontierSampler.Run → DegreeDist). Each crawl dials a
// fresh client whose cache holds a quarter of the graph's vertices, so
// the working set overflows it as on the paper's million-vertex graphs;
// the frontier is prefetched every m/2 steps and the server injects no
// latency. The job, live and checkpoint layers are bypassed.
const (
	crawlM      = 50
	crawlBudget = 10000
	// crawlLocalReps is how often the traced run repeats each crawl
	// over the in-memory graph to time the sampler alone.
	crawlLocalReps = 3
)

var crawlRemote = &workload{
	graph: jobStream.graph,
	warm: func(ctx context.Context, sys *system) error {
		_, err := remoteCrawl(ctx, sys, 1, crawlBudget/10)
		return err
	},
	window: func(ctx context.Context, sys *system, cfg config, tr *tracer) (*window, error) {
		w := closedLoop(ctx, cfg.seconds, 1, func(ctx context.Context, _, i int) opResult {
			seed := mix(cfg.seed, uint64(i))
			traceID := frontier.NewTraceID()
			wire0, handler0 := sys.ln.bytes.Load(), sys.handler.ns.Load()
			r := opResult{start: time.Now()}
			rec, err := remoteCrawl(frontier.WithTraceID(ctx, traceID), sys, seed, crawlBudget)
			r.end = time.Now()
			rec.wire = sys.ln.bytes.Load() - wire0
			rec.handlerNs = sys.handler.ns.Load() - handler0
			r.obs, r.err, r.detail = rec.sampled.obs, err, rec
			tr.span(traceID, "crawl", "", r.start, r.end)
			return r
		})
		// The same seeded crawl over the in-memory graph must sample the
		// identical edge sequence and estimate; run after the window so
		// the check does not count in it.
		for i := range w.ops {
			op := &w.ops[i]
			rec := op.detail.(*crawlOp)
			if op.err != nil {
				continue
			}
			local, _, err := localCrawl(sys.g, rec.seed, crawlBudget, 1)
			if err == nil {
				err = rec.sampled.same(local)
			}
			if err != nil {
				op.err = fmt.Errorf("crawl seed %d: %w", rec.seed, err)
			}
		}
		return w, nil
	},
	layers: crawlLayers,
	rssOps: 6,
}

// crawlResult is what one crawl sampled.
type crawlResult struct {
	obs   int64
	hash  uint64
	theta []float64
}

// same reports whether two crawls sampled the same edges and estimate.
func (a crawlResult) same(b crawlResult) error {
	if a.obs != b.obs || a.hash != b.hash {
		return fmt.Errorf("remote crawl sampled %d edges (hash %016x), local %d (hash %016x)", a.obs, a.hash, b.obs, b.hash)
	}
	if len(a.theta) != len(b.theta) {
		return fmt.Errorf("remote degree distribution has %d entries, local %d", len(a.theta), len(b.theta))
	}
	for i := range a.theta {
		if a.theta[i] != b.theta[i] {
			return fmt.Errorf("remote theta[%d] = %g, local %g", i, a.theta[i], b.theta[i])
		}
	}
	return nil
}

// crawlOp is crawl-remote's record of one crawl.
type crawlOp struct {
	seed                uint64
	sampled             crawlResult
	roundtrips, records int64
	hits, misses        int64
	wire, handlerNs     int64 // traced windows only
}

// crawl runs the classic FS crawl over src.
func crawl(src frontier.Source, view frontier.View, seed uint64, budget float64) (crawlResult, error) {
	fs := &frontier.FrontierSampler{M: crawlM, PrefetchEvery: crawlM / 2}
	sess := frontier.NewSession(src, budget, frontier.UnitCosts(), frontier.NewRand(seed))
	est := frontier.NewDegreeDist(view, frontier.SymDeg)
	r := crawlResult{hash: fnvOffset}
	err := fs.Run(sess, func(u, v int) {
		r.hash = hashEdge(r.hash, u, v)
		r.obs++
		est.Observe(u, v)
	})
	r.theta = est.Theta()
	return r, err
}

// remoteCrawl dials a fresh client and crawls the hosted graph; the
// client's requests carry ctx, and with it any trace ID.
func remoteCrawl(ctx context.Context, sys *system, seed uint64, budget float64) (*crawlOp, error) {
	rec := &crawlOp{seed: seed}
	c, err := frontier.DialGraph(sys.url, frontier.WithClientGraph(sys.name),
		frontier.WithCacheCapacity(sys.g.NumVertices()/4), frontier.WithClientContext(ctx))
	if err != nil {
		return rec, err
	}
	err = c.RunSafely(func() error {
		var err error
		rec.sampled, err = crawl(c, c, seed, budget)
		return err
	})
	rec.roundtrips, rec.records = c.Roundtrips(), c.Fetches()
	rec.hits, rec.misses = c.CacheStats()
	if err != nil {
		return rec, fmt.Errorf("crawl seed %d: %w", seed, err)
	}
	return rec, nil
}

// localCrawl runs the crawl reps times over the in-memory graph and
// returns its result and median time.
func localCrawl(g *frontier.Graph, seed uint64, budget float64, reps int) (crawlResult, time.Duration, error) {
	var r crawlResult
	times := make([]float64, reps)
	for k := range times {
		start := time.Now()
		var err error
		if r, err = crawl(g, g, seed, budget); err != nil {
			return r, 0, err
		}
		times[k] = time.Since(start).Seconds()
	}
	return r, time.Duration(median(times) * float64(time.Second)), nil
}

// crawlLayers splits the traced crawls' cost between the sampler (the
// same crawl in memory), the server's vertex handler and the client
// with its loopback round trips.
func crawlLayers(sys *system, w *window, rep *report) error {
	var obs, roundtrips, records, hits, misses, wire, handlerNs int64
	var remote, local time.Duration
	for _, op := range w.ops {
		if op.err != nil {
			continue
		}
		rec := op.detail.(*crawlOp)
		_, d, err := localCrawl(sys.g, rec.seed, crawlBudget, crawlLocalReps)
		if err != nil {
			rep.fail(err)
			continue
		}
		obs += rec.sampled.obs
		roundtrips += rec.roundtrips
		records += rec.records
		hits += rec.hits
		misses += rec.misses
		wire += rec.wire
		handlerNs += rec.handlerNs
		remote += op.end.Sub(op.start)
		local += d
	}
	if obs == 0 || roundtrips == 0 || records == 0 {
		return fmt.Errorf("crawl-remote: no traced crawl succeeded")
	}
	handlerUs := float64(handlerNs) / 1e3 / float64(roundtrips)
	rep.layers["core.sample_ns_per_obs"] = float64(local.Nanoseconds()) / float64(obs)
	rep.layers["netgraph.roundtrips_per_kobs"] = float64(roundtrips) / float64(obs) * 1000
	rep.layers["netgraph.records_per_obs"] = float64(records) / float64(obs)
	rep.layers["netgraph.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	rep.layers["netgraph.wire_bytes_per_record"] = float64(wire) / float64(records)
	rep.layers["netgraph.handler_us_per_roundtrip"] = handlerUs
	rep.layers["netgraph.client_us_per_roundtrip"] = float64((remote-local).Microseconds())/float64(roundtrips) - handlerUs
	return nil
}
