package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"frontier"
)

// sweep-fig5: one client runs the paper's Figure 5 sweep at a time over
// HTTP on the 40k-vertex Flickr stand-in: 120 short fixed-budget
// degreedist jobs (B = |V|/100), three aggregations and a figure node,
// with two job nodes in flight. Per-job fixed costs and DAG scheduling
// dominate; every sweep of a run uses the same seed, so every one must
// write the same fig5.csv.
const (
	sweepNodes  = 124
	sweepChecks = 2
	sweepCSV    = "fig5.csv"
	// sweepShadow is how many job nodes of each method the replica
	// passes shadow; sweepReps is how often each pass runs.
	sweepShadow = 2
	sweepReps   = 5
)

var sweepFig5 = &workload{
	graph: func() (*frontier.Graph, *frontier.GroupLabels) {
		ds, err := frontier.DatasetByName("flickr", frontier.NewRand(1), 1.0)
		if err != nil {
			panic(err) // a registered dataset name; cannot fail
		}
		return ds.Graph, ds.Groups
	},
	warm: func(ctx context.Context, sys *system) error {
		// One single-run fig5 sweep fills the sweep service's lazy state
		// (truth vectors) before timing.
		st, err := sys.client.SubmitSweep(ctx, frontier.SweepSpec{Artifact: "fig5", Runs: 1, Parallel: jobWorkers})
		if err == nil {
			st, err = sys.client.FollowSweep(ctx, st.ID, nil)
		}
		if err != nil {
			return err
		}
		if st.State != frontier.SweepDone {
			return fmt.Errorf("warm-up sweep %s ended %s: %s", st.ID, st.State, st.Error)
		}
		return nil
	},
	window: func(ctx context.Context, sys *system, cfg config, tr *tracer) (*window, error) {
		seed := mix(cfg.seed, 0)
		w := closedLoop(ctx, cfg.seconds, 1, func(ctx context.Context, _, i int) opResult {
			return runSweep(ctx, sys, seed, tr)
		})
		// Every sweep of the window ran the same plan, so the job nodes of
		// the first done one give the observation count of each.
		var perSweep int64
		var ref string
		for i := range w.ops {
			op := &w.ops[i]
			rec := op.detail.(*sweepOp)
			if op.err != nil {
				continue
			}
			if ref == "" {
				ref = rec.csvSHA
				n, err := sweepObs(ctx, sys.client, rec)
				if err != nil {
					return nil, err
				}
				perSweep = n
			}
			op.obs = perSweep
			if rec.csvSHA != ref {
				op.err = fmt.Errorf("sweep %s: %s sha256 %s, the run's first sweep wrote %s", rec.status.ID, sweepCSV, rec.csvSHA, ref)
			}
		}
		return w, nil
	},
	layers: sweepLayers,
	// Its jobs are short (one or two checkpoints each), so the files
	// cost little next to the sweep's own manifest writes.
	persist: true,
	rssOps:  6,
}

// sweepOp is sweep-fig5's record of one sweep.
type sweepOp struct {
	traceID string
	status  frontier.SweepStatus
	csvSHA  string
	trace   frontier.SweepTrace // traced windows only
	jobs    []sweepJob          // traced windows only
}

// sweepJob is one job node of a traced sweep.
type sweepJob struct {
	status   frontier.JobStatus
	timing   jobTiming
	ckptSize int64
}

// runSweep submits a fig5 sweep, follows it to a terminal state and
// checks it: every node done, both shape checks passing, and the
// fig5.csv the client downloads matching the advertised digest. In a
// traced window it also fetches the sweep's and its jobs' timelines.
func runSweep(ctx context.Context, sys *system, seed uint64, tr *tracer) opResult {
	c := sys.client
	rec := &sweepOp{traceID: frontier.NewTraceID()}
	ctx = frontier.WithTraceID(ctx, rec.traceID)
	r := opResult{start: time.Now(), detail: rec}
	st, err := c.SubmitSweep(ctx, frontier.SweepSpec{Artifact: "fig5", Seed: seed, Parallel: jobWorkers})
	if err == nil {
		st, err = c.FollowSweep(ctx, st.ID, nil)
	}
	r.end = time.Now()
	rec.status = st
	if err != nil {
		r.err = fmt.Errorf("sweep %s: %w", st.ID, err)
		return r
	}
	if r.err = checkSweep(st); r.err != nil {
		return r
	}
	t0 := time.Now()
	csv, err := c.SweepArtifact(ctx, st.ID, sweepCSV)
	if err != nil {
		r.err = fmt.Errorf("sweep %s: %w", st.ID, err)
		return r
	}
	sum := sha256.Sum256(csv)
	rec.csvSHA = hex.EncodeToString(sum[:])
	for _, a := range st.Artifacts {
		if a.Name == sweepCSV && a.SHA256 != rec.csvSHA {
			r.err = fmt.Errorf("sweep %s: downloaded %s has sha256 %s, advertised %s", st.ID, sweepCSV, rec.csvSHA, a.SHA256)
		}
	}
	if tr == nil {
		return r
	}
	tr.span(rec.traceID, "sweep", "", r.start, r.end)
	tr.span(rec.traceID, "sweep/artifact", "", t0, time.Now())
	t0 = time.Now()
	if err := traceSweep(ctx, sys, rec, tr); err != nil && r.err == nil {
		r.err = err
	}
	tr.span(rec.traceID, "sweep/trace", "", t0, time.Now())
	return r
}

// checkSweep checks a finished fig5 sweep's status.
func checkSweep(st frontier.SweepStatus) error {
	switch {
	case st.State != frontier.SweepDone:
		return fmt.Errorf("sweep %s ended %s: %s", st.ID, st.State, st.Error)
	case len(st.Nodes) != sweepNodes || st.NodeCounts[frontier.SweepNodeDone] != sweepNodes:
		return fmt.Errorf("sweep %s: %d of %d nodes done, want %d", st.ID, st.NodeCounts[frontier.SweepNodeDone], len(st.Nodes), sweepNodes)
	case !st.ChecksPass || len(st.Checks) != sweepChecks:
		return fmt.Errorf("sweep %s: shape checks %+v", st.ID, st.Checks)
	}
	return nil
}

// traceSweep fetches a sweep's timeline and each job node's status,
// timeline and checkpoint size.
func traceSweep(ctx context.Context, sys *system, rec *sweepOp, tr *tracer) error {
	c := sys.client
	var err error
	if rec.trace, err = c.SweepTrace(ctx, rec.status.ID); err != nil {
		return err
	}
	tr.sweepTrace(rec.trace)
	for _, n := range rec.status.Nodes {
		if n.Kind != "job" {
			continue
		}
		st, err := c.Job(ctx, n.JobID)
		if err != nil {
			return err
		}
		jtr, err := c.JobTrace(ctx, n.JobID)
		if err != nil {
			return err
		}
		tr.jobTrace(jtr)
		jt, err := timeJob(jtr)
		if err != nil {
			return err
		}
		sj := sweepJob{status: st, timing: jt}
		if fi, err := os.Stat(filepath.Join(sys.ckpt, st.ID+".json")); err == nil {
			sj.ckptSize = fi.Size()
		}
		rec.jobs = append(rec.jobs, sj)
	}
	return nil
}

// sweepObs sums the observations of a sweep's job nodes.
func sweepObs(ctx context.Context, c *frontier.GraphClient, rec *sweepOp) (int64, error) {
	var n int64
	for _, node := range rec.status.Nodes {
		if node.Kind != "job" {
			continue
		}
		st, err := c.Job(ctx, node.JobID)
		if err != nil {
			return 0, err
		}
		n += st.Edges
	}
	return n, nil
}

// sweepLayers splits the traced sweeps' cost: worker occupancy and the
// post-DAG tail from the timelines, job-level costs from every job node,
// and the per-observation layers from replicas of the first sweep's
// first sweepShadow jobs of each method.
func sweepLayers(sys *system, w *window, rep *report) error {
	var (
		split              layerSplit
		busy, tails, waits []float64
		sizes              []float64
		ckpts, ckptObs     int64
		shadowed           = map[string]int{}
		first              = true
		jobNodeIDs         = map[string]bool{}
	)
	for _, op := range w.ops {
		if op.err != nil {
			continue
		}
		rec := op.detail.(*sweepOp)
		for _, n := range rec.status.Nodes {
			if n.Kind == "job" {
				jobNodeIDs[n.ID] = true
			}
		}
		start, ok1 := eventTime(rec.trace.Events, "sweep/start")
		done, ok2 := eventTime(rec.trace.Events, "sweep/"+string(frontier.SweepDone))
		if !ok1 || !ok2 {
			rep.fail(fmt.Errorf("sweep %s: trace lacks sweep/start or sweep/done", rec.status.ID))
			continue
		}
		var lastJobDone time.Time
		for _, e := range rec.trace.Events {
			if e.Name == "node/"+string(frontier.SweepNodeDone) && jobNodeIDs[e.Detail] && e.Time.After(lastJobDone) {
				lastJobDone = e.Time
			}
		}
		tails = append(tails, ms(done.Sub(lastJobDone)))
		var run time.Duration
		for _, j := range rec.jobs {
			run += j.timing.run
			waits = append(waits, ms(j.timing.queueWait))
			sizes = append(sizes, float64(j.ckptSize))
			ckpts += j.timing.checkpoints
			ckptObs += j.status.Edges
		}
		busy = append(busy, run.Seconds()/(jobWorkers*done.Sub(start).Seconds()))
		if !first {
			continue
		}
		first = false
		var failed error
		for _, j := range rec.jobs {
			m := j.status.Spec.Method
			if shadowed[m] >= sweepShadow {
				continue
			}
			shadowed[m]++
			r, err := replicate(sys.g, j.status, sweepReps)
			if err != nil {
				failed = err
				continue
			}
			split.add(r, j.timing.run)
		}
		if failed != nil {
			rep.fail(fmt.Errorf("sweep %s: %w", rec.status.ID, failed))
		}
	}
	if len(busy) == 0 {
		return fmt.Errorf("sweep-fig5: no traced sweep succeeded")
	}
	split.setLayers(rep.layers)
	rep.layers["sweep.worker_busy_ratio"] = median(busy)
	rep.layers["sweep.tail_ms"] = median(tails)
	rep.layers["jobs.queue_wait_ms"] = median(waits)
	rep.layers["jobs.checkpoints_per_kobs"] = float64(ckpts) / float64(ckptObs) * 1000
	rep.layers["jobs.checkpoint_bytes"] = median(sizes)
	return nil
}
