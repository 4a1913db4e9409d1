package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"frontier"
)

// job-stream: two clients each submit one adaptive-stopping job at a
// time over HTTP and follow it by SSE to a terminal state. The budget
// cap lies far above the stopping point, so a job's latency is the time
// to an estimate of stated accuracy.
//
// The job manager has no checkpoint directory here. A job still takes
// its step-boundary snapshot every 256 observations, but does not write
// it: on a shared disk the file writes took up to two thirds of a job's
// time and made the same seed's median latency vary by up to a quarter
// from run to run. sweep-fig5 keeps the checkpoint files.
const (
	jobClients  = 2
	jobBudget   = 1e7
	jobStopRule = "ci_rel<=0.005"
	jobEstimate = "avgdegree"
	// jobTolerance is how far a converged estimate may lie from the
	// exact average degree.
	jobTolerance = 0.05
	// shadowPerMethod is how many traced jobs of each method the
	// replica passes shadow; shadowReps is how often each pass runs.
	shadowPerMethod = 2
	shadowReps      = 3
)

// jobMethods are the specs job-stream cycles through: both drives of
// the job runner, per observation (fs) and by slab (single). FS, the
// paper's sampler, comes twice per cycle, so the median job is an fs
// job rather than the gap between the two methods' latencies.
var jobMethods = []frontier.JobSpec{
	{Method: "fs", M: 16},
	{Method: "single"},
	{Method: "fs", M: 16},
}

var jobStream = &workload{
	graph: func() (*frontier.Graph, *frontier.GroupLabels) {
		return frontier.BarabasiAlbert(frontier.NewRand(99), 50000, 5), nil
	},
	warm: func(ctx context.Context, sys *system) error {
		for _, m := range jobMethods {
			sp := m
			sp.Budget, sp.Seed, sp.Estimate = 4096, 1, jobEstimate
			st, err := sys.client.SubmitJob(ctx, sp)
			if err == nil {
				st, err = sys.client.FollowJob(ctx, st.ID, nil)
			}
			if err != nil {
				return err
			}
			if st.State != frontier.JobDone {
				return fmt.Errorf("warm-up job %s ended %s: %s", st.ID, st.State, st.Error)
			}
		}
		return nil
	},
	window: func(ctx context.Context, sys *system, cfg config, tr *tracer) (*window, error) {
		clients := make([]*frontier.GraphClient, jobClients)
		for i := range clients {
			c, err := frontier.DialGraph(sys.url, frontier.WithClientGraph(sys.name))
			if err != nil {
				return nil, err
			}
			clients[i] = c
		}
		return closedLoop(ctx, cfg.seconds, jobClients, func(ctx context.Context, client, i int) opResult {
			sp := jobMethods[i%len(jobMethods)]
			sp.Budget, sp.Estimate, sp.StopRule = jobBudget, jobEstimate, jobStopRule
			sp.Seed = mix(cfg.seed, uint64(i))
			return runJob(ctx, sys, clients[client], sp, tr)
		}), nil
	},
	layers: jobStreamLayers,
	rssOps: 50,
}

// jobOp is job-stream's record of one job.
type jobOp struct {
	traceID   string
	status    frontier.JobStatus // terminal status
	submitted time.Time          // when the submit call returned
	received  time.Time          // when the client saw the terminal frame
	trace     frontier.JobTrace  // traced windows only
}

// runJob submits sp, follows it to a terminal state and checks the
// result. In a traced window it also records spans and fetches the
// job's server timeline and checkpoint size, after the op is timed.
func runJob(ctx context.Context, sys *system, c *frontier.GraphClient, sp frontier.JobSpec, tr *tracer) opResult {
	rec := &jobOp{traceID: frontier.NewTraceID()}
	ctx = frontier.WithTraceID(ctx, rec.traceID)
	r := opResult{start: time.Now(), detail: rec}
	st, err := c.SubmitJob(ctx, sp)
	rec.submitted = time.Now()
	if err == nil {
		st, err = c.FollowJob(ctx, st.ID, func(s frontier.JobStatus) {
			if s.State.Terminal() {
				rec.received = time.Now()
			}
		})
	}
	r.end = time.Now()
	rec.status, r.obs = st, st.Edges
	if err != nil {
		r.err = fmt.Errorf("job %s (%s seed %d): %w", st.ID, sp.Method, sp.Seed, err)
		return r
	}
	r.err = checkJob(st, rec.traceID, sys.avgDeg)
	if tr == nil {
		return r
	}
	tr.span(rec.traceID, "job", "", r.start, r.end)
	tr.span(rec.traceID, "job/submit", "job", r.start, rec.submitted)
	tr.span(rec.traceID, "job/follow", "job", rec.submitted, r.end)
	t0 := time.Now()
	rec.trace, err = c.JobTrace(ctx, st.ID)
	tr.span(rec.traceID, "job/trace", "", t0, time.Now())
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("job %s trace: %w", st.ID, err)
	}
	tr.jobTrace(rec.trace)
	return r
}

// checkJob checks a job-stream job: done, stopped by its rule, with an
// estimate within jobTolerance of the exact average degree, and
// carrying the trace ID it was submitted under.
func checkJob(st frontier.JobStatus, traceID string, truth float64) error {
	switch {
	case st.State != frontier.JobDone:
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case !strings.HasPrefix(st.StopReason, "converged:"):
		return fmt.Errorf("job %s stopped by %q, not its rule", st.ID, st.StopReason)
	case st.Estimate == nil || math.Abs(*st.Estimate-truth) > jobTolerance*truth:
		est := math.NaN()
		if st.Estimate != nil {
			est = *st.Estimate
		}
		return fmt.Errorf("job %s (%s seed %d) estimate %g after %d obs, exact average degree %g",
			st.ID, st.Spec.Method, st.Spec.Seed, est, st.Edges, truth)
	case st.TraceID != traceID:
		return fmt.Errorf("job %s trace ID %q, submitted under %q", st.ID, st.TraceID, traceID)
	}
	return nil
}

// jobStreamLayers splits the traced jobs' cost by layer: replica passes
// for the first shadowPerMethod jobs of each method, server timelines
// for every job. The checkpoint size is the shadowed jobs' last
// snapshot as the job runner would write it.
func jobStreamLayers(sys *system, w *window, rep *report) error {
	var (
		total    layerSplit
		waits    []float64
		lags     []float64
		sizes    []float64
		toStop   []float64
		ckpts    int64
		ckptObs  int64
		shadowed = map[string]int{}
	)
	for _, op := range w.ops {
		rec := op.detail.(*jobOp)
		if op.err != nil {
			continue // already counted as failed
		}
		jt, err := timeJob(rec.trace)
		if err != nil {
			rep.fail(err)
			continue
		}
		if jt.complete {
			waits = append(waits, ms(jt.queueWait))
		} else {
			// The timeline overflowed (a long job): take its run time from
			// the client, submit return to terminal frame, which exceeds
			// it by the queue wait and notify lag of about a millisecond.
			jt.run = rec.received.Sub(rec.submitted)
		}
		lags = append(lags, ms(rec.received.Sub(jt.done)))
		toStop = append(toStop, float64(rec.status.Edges))
		ckpts += jt.checkpoints
		ckptObs += rec.status.Edges
		m := rec.status.Spec.Method
		if shadowed[m] >= shadowPerMethod {
			continue
		}
		shadowed[m]++
		r, err := replicate(sys.g, rec.status, shadowReps)
		if err != nil {
			rep.fail(err)
			continue
		}
		total.add(r, jt.run)
		sizes = append(sizes, float64(r.ckptBytes))
	}
	if len(toStop) == 0 {
		return fmt.Errorf("job-stream: no traced job succeeded")
	}
	total.setLayers(rep.layers)
	rep.layers["live.obs_to_stop"] = median(toStop)
	rep.layers["jobs.checkpoints_per_kobs"] = float64(ckpts) / float64(ckptObs) * 1000
	rep.layers["jobs.checkpoint_bytes"] = median(sizes)
	rep.layers["jobs.queue_wait_ms"] = median(waits)
	rep.layers["jobs.notify_lag_ms"] = median(lags)
	printLayerTable(&total)
	return nil
}

// printLayerTable writes job-stream's cumulative cost per observation
// over all shadowed jobs, layer by layer.
func printLayerTable(total *layerSplit) {
	var b strings.Builder
	b.WriteString("e2ebench: job-stream layer table, cumulative ns/obs over shadowed jobs\n")
	ns := total.nsPerObs()
	for i, name := range append(passNames[:], "+job runner") {
		fmt.Fprintf(&b, "  %-12s %10.0f\n", name, ns[i])
	}
	fmt.Fprint(os.Stderr, b.String())
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
