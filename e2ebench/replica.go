package main

import (
	"encoding/json"
	"fmt"
	"time"

	"frontier"
)

// The replica passes re-run a finished job's spec and seed in the
// benchmark process, adding one layer per pass, so the difference
// between consecutive passes is that layer's cost:
//
//	A  the method's sampler, no-op callback
//	B  A + a shadow LiveEstimator.ObserveSample (the live kernel)
//	C  the sampler driving a LiveRuntime with the job's chain count
//	   (kernel + convergence monitor)
//	D  C + the step-boundary snapshot every CheckpointEvery observations:
//	   LiveRuntime.State, the sampler's Snapshot and Session.Checkpoint
//
// What the job runner does beyond D (status, reports, checkpoint
// encoding and writes) is its self time. Every pass hashes the
// observation stream and must reproduce the job's edge_hash; that is
// what makes the split trustworthy.
const (
	passSampler = iota
	passKernel
	passMonitor
	passSnapshot
	numPasses
)

// passNames label the passes in the layer table.
var passNames = [numPasses]string{"sampler", "+kernel", "+monitor", "+snapshot"}

// A pass runs at least reps times, and more, up to maxPassReps, until
// minPassSeconds are spent, so that cheap passes are timed over enough
// work for their differences to mean something.
const (
	minPassSeconds = 0.1
	maxPassReps    = 50
)

// replica is the per-pass time of one shadowed job.
type replica struct {
	method string
	obs    int64
	pass   [numPasses]time.Duration
	// ckptBytes is the JSON size of pass D's last snapshot: the
	// session, sampler and live state a checkpoint file holds.
	ckptBytes int
}

// replicate runs every pass over src and keeps each pass's median
// time. It fails when any pass does not reproduce the job's
// observation count and edge hash.
func replicate(src frontier.Source, st frontier.JobStatus, reps int) (replica, error) {
	sp := st.Spec
	if sp.M < 1 {
		sp.M = 1
	}
	if sp.Estimate == "" {
		sp.Estimate = "avgdegree"
	}
	if sp.CheckpointEvery <= 0 {
		sp.CheckpointEvery = 256
	}
	method, ok := frontier.DefaultJobMethods().Get(sp.Method)
	if !ok {
		return replica{}, fmt.Errorf("job %s: unknown method %q", st.ID, sp.Method)
	}
	rule, err := frontier.ParseStopRule(sp.StopRule)
	if err != nil {
		return replica{}, fmt.Errorf("job %s: %w", st.ID, err)
	}
	// A job stopped by its rule unwound at the first budget charge after
	// the stop; a budget of exactly what it spent ends the replica at
	// the same charge.
	budget := sp.Budget
	if rule != nil {
		budget = st.Spent
	}
	// Passes run in rounds, A B C D A B C D ..., each until it has run
	// reps times and spent minPassSeconds, so that drift in the box's
	// speed hits consecutive passes alike.
	var (
		times     [numPasses][]float64
		spent     [numPasses]float64
		ckptBytes int
	)
	need := func(p int) bool {
		return len(times[p]) < reps || (spent[p] < minPassSeconds && len(times[p]) < maxPassReps)
	}
	for more := true; more; {
		more = false
		for p := 0; p < numPasses; p++ {
			if !need(p) {
				continue
			}
			more = true
			pr, err := runPass(p, method, sp, src, budget, rule)
			if err != nil {
				return replica{}, fmt.Errorf("job %s: pass %s: %w", st.ID, passNames[p], err)
			}
			if got := fmt.Sprintf("%016x", pr.hash); pr.n != st.Edges || got != st.EdgeHash {
				return replica{}, fmt.Errorf("job %s: pass %s sampled %d obs with hash %s, the job %d with hash %s",
					st.ID, passNames[p], pr.n, got, st.Edges, st.EdgeHash)
			}
			times[p] = append(times[p], pr.d.Seconds())
			spent[p] += pr.d.Seconds()
			if p == passSnapshot {
				ckptBytes = pr.ckptBytes
			}
		}
	}
	r := replica{method: sp.Method, obs: st.Edges, ckptBytes: ckptBytes}
	for p := range times {
		r.pass[p] = time.Duration(median(times[p]) * float64(time.Second))
	}
	return r, nil
}

// passRun is one pass's outcome.
type passRun struct {
	d         time.Duration
	n         int64  // observations
	hash      uint64 // edge hash
	ckptBytes int    // pass D only: JSON size of the last snapshot
}

// runPass runs one pass. It drives the sampler the way the job runner
// does: per observation for walker-tracked methods, by slab otherwise.
func runPass(p int, method frontier.JobMethod, sp frontier.JobSpec, src frontier.Source, budget float64, rule *frontier.StopRule) (passRun, error) {
	sampler := method.Build(sp)
	sess := frontier.NewSession(src, budget, frontier.UnitCosts(), frontier.NewRand(sp.Seed))
	var (
		est *frontier.LiveEstimator
		rt  *frontier.LiveRuntime
		err error
	)
	if p >= passKernel {
		if est, err = frontier.DefaultEstimators().New(sp.Estimate, src); err != nil {
			return passRun{}, err
		}
	}
	if p >= passMonitor {
		chains := min(max(sp.M, 2), 8) // the job runner's chain count
		rt = frontier.NewLiveRuntime(est, frontier.NewConvergenceMonitor(frontier.MonitorConfig{Chains: chains}), rule)
	}
	every := int64(sp.CheckpointEvery)
	// last keeps the latest snapshot, laid out as a checkpoint file
	// holds it; it is encoded after the pass is timed.
	var last struct {
		Session frontier.SessionCheckpoint `json:"session"`
		Sampler json.RawMessage            `json:"sampler"`
		Live    json.RawMessage            `json:"live"`
	}
	snapshot := func() {
		last.Sampler, _ = sampler.Snapshot()
		last.Live, _ = rt.State()
		last.Session = sess.Checkpoint()
	}
	tracker, _ := sampler.(frontier.WalkerTracker)
	hash, n := fnvOffset, int64(0)
	start := time.Now()
	if method.UsesWalkers {
		err = sampler.RunObs(sess, func(o frontier.Observation) {
			hash = hashEdge(hash, o.U, o.V)
			n++
			switch p {
			case passKernel:
				est.ObserveSample(o)
			case passMonitor, passSnapshot:
				walker := 0
				if tracker != nil {
					walker = tracker.LastWalker()
				}
				rt.ObserveSample(walker, o)
			}
			if p == passSnapshot && n%every == 0 {
				snapshot()
			}
		})
	} else {
		err = sampler.RunObsBatch(sess, func(batch []frontier.Observation) {
			for _, o := range batch {
				hash = hashEdge(hash, o.U, o.V)
			}
			prev := n
			n += int64(len(batch))
			switch p {
			case passKernel:
				for _, o := range batch {
					est.ObserveSample(o)
				}
			case passMonitor, passSnapshot:
				rt.ObserveBatch(0, batch)
			}
			if p == passSnapshot && n/every != prev/every {
				snapshot()
			}
		})
	}
	r := passRun{d: time.Since(start), n: n, hash: hash}
	if err != nil {
		return r, err
	}
	if p == passSnapshot {
		data, err := json.Marshal(&last)
		if err != nil {
			return r, err
		}
		r.ckptBytes = len(data)
	}
	return r, nil
}

// layerSplit sums shadowed jobs' pass times and observations, and the
// jobs' own run time from their server timelines.
type layerSplit struct {
	obs  int64
	pass [numPasses]time.Duration
	run  time.Duration
}

// add folds one shadowed job in.
func (s *layerSplit) add(r replica, run time.Duration) {
	s.obs += r.obs
	for p := range r.pass {
		s.pass[p] += r.pass[p]
	}
	s.run += run
}

// nsPerObs returns the cumulative cost per observation after each pass
// and, last, of the whole job run.
func (s *layerSplit) nsPerObs() [numPasses + 1]float64 {
	var out [numPasses + 1]float64
	if s.obs == 0 {
		return out
	}
	for p, d := range s.pass {
		out[p] = float64(d.Nanoseconds()) / float64(s.obs)
	}
	out[numPasses] = float64(s.run.Nanoseconds()) / float64(s.obs)
	return out
}

// setLayers reports the split as per-layer metrics.
func (s *layerSplit) setLayers(layers map[string]float64) {
	c := s.nsPerObs()
	layers["core.sample_ns_per_obs"] = c[passSampler]
	layers["live.kernel_ns_per_obs"] = c[passKernel] - c[passSampler]
	layers["live.monitor_ns_per_obs"] = c[passMonitor] - c[passKernel]
	layers["jobs.snapshot_ns_per_obs"] = c[passSnapshot] - c[passMonitor]
	layers["jobs.self_ns_per_obs"] = c[numPasses] - c[passSnapshot]
}
