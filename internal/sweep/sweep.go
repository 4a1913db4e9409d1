// Package sweep runs paper-figure reproductions as deterministic DAGs
// of sampling jobs. A sweep spec names an artifact from the experiment
// registry ("fig5", "table2", …, or "all"); the planner expands it
// into levels of nodes — one sampling job per (method × Monte Carlo
// run), routed through jobs.Manager so every node gets checkpointing,
// live estimation, and metrics for free, then one aggregation node per
// method, then one figure node that renders the artifact's rows,
// evaluates the paper's shape checks, and writes one JSON + one CSV
// artifact file.
//
// Sweeps are resumable: a manifest holding per-node states and
// completed-node results is journaled in the manifest dir
// (conventionally next to the job checkpoint dir), one appended line
// per node transition after a base line written atomically. Killing the process mid-sweep and constructing a new
// Manager over the same directories resumes the sweep without
// re-running finished nodes; because node seeds derive only from the
// sweep spec, the resumed sweep's artifacts are byte-identical to an
// uninterrupted run's.
//
// Every sweep carries one trace ID spanning all of its nodes: the ID
// is stamped on each submitted job and stage events are recorded in a
// sweep-wide obs.Timeline, queryable next to the per-job traces.
package sweep

import (
	"encoding/json"

	"frontier/internal/jobs"
	"frontier/internal/obs"
)

// State is a sweep's lifecycle state.
type State string

// Sweep lifecycle states.
const (
	// StatePending means the sweep is planned but no node has started.
	StatePending State = "pending"
	// StateRunning means at least one node has started.
	StateRunning State = "running"
	// StateDone means every node reached a terminal state and no node
	// failed. Skipped nodes (for example a group-density figure on a
	// graph without group labels) do not demote a sweep from done.
	StateDone State = "done"
	// StateFailed means a node failed (under fail-fast, the first
	// failure; under continue, at least one branch failed).
	StateFailed State = "failed"
	// StateCancelled means the sweep was cancelled by request.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// NodeState is one DAG node's lifecycle state.
type NodeState string

// Node lifecycle states.
const (
	// NodePending means the node has not started.
	NodePending NodeState = "pending"
	// NodeRunning means the node is executing (for job nodes, the
	// underlying sampling job is queued or running).
	NodeRunning NodeState = "running"
	// NodeDone means the node finished and its result is recorded.
	NodeDone NodeState = "done"
	// NodeFailed means the node errored (or its job was cancelled).
	NodeFailed NodeState = "failed"
	// NodeSkipped means the node never ran: a dependency did not reach
	// done, the sweep aborted first, or the plan marked it inapplicable
	// to the hosted graph.
	NodeSkipped NodeState = "skipped"
)

// Terminal reports whether the node state is final.
func (s NodeState) Terminal() bool {
	return s == NodeDone || s == NodeFailed || s == NodeSkipped
}

// Error policies selectable via Spec.OnError.
const (
	// FailFast aborts the sweep on the first node failure, cancelling
	// in-flight sibling jobs and skipping everything still pending.
	FailFast = "fail-fast"
	// Continue lets sibling branches finish after a node failure; only
	// the failed node's transitive dependents are skipped.
	Continue = "continue"
)

// Spec describes one requested sweep. The zero values of the optional
// fields select the defaults noted on each.
type Spec struct {
	// Artifact is the experiment-registry artifact id to reproduce
	// ("fig5", "table2", …) or "all" for every sweep-supported
	// artifact applicable to the hosted graph.
	Artifact string `json:"artifact"`
	// Graph optionally names the catalog graph to sample ("" = the
	// catalog default).
	Graph string `json:"graph,omitempty"`
	// Seed is the base RNG seed node seeds derive from (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Runs is the Monte Carlo repetition count per method (default 40,
	// the quick-config default of the in-process suite).
	Runs int `json:"runs,omitempty"`
	// Parallel bounds how many sampling jobs the sweep keeps in flight
	// at once (default: the job manager's worker count).
	Parallel int `json:"parallel,omitempty"`
	// OnError selects the failure policy: FailFast (default) or
	// Continue.
	OnError string `json:"on_error,omitempty"`
}

// NodeStatus is one DAG node's externally visible state.
type NodeStatus struct {
	// ID is the node's sweep-unique id, e.g. "fig5/fs/run003",
	// "fig5/agg/fs", "fig5/figure".
	ID string `json:"id"`
	// Kind is "job", "aggregate", or "figure".
	Kind string `json:"kind"`
	// Level is the node's DAG level (0 = sampling jobs, 1 =
	// per-method aggregation, 2 = figure assembly).
	Level int `json:"level"`
	// Deps lists the node ids this node consumes.
	Deps []string `json:"deps,omitempty"`
	// State is the node's lifecycle state.
	State NodeState `json:"state"`
	// JobID is the underlying sampling job's id (job nodes only).
	JobID string `json:"job_id,omitempty"`
	// Digest is the sha256 hex digest of the node's recorded result,
	// set once the node is done.
	Digest string `json:"digest,omitempty"`
	// Error describes why the node failed or was skipped.
	Error string `json:"error,omitempty"`
}

// ArtifactInfo describes one artifact file a sweep wrote.
type ArtifactInfo struct {
	// Name is the file name served by the artifacts endpoint,
	// e.g. "fig5.json".
	Name string `json:"name"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
	// SHA256 is the hex digest of the file contents.
	SHA256 string `json:"sha256"`
}

// CheckResult is one paper shape check evaluated by a figure node.
type CheckResult struct {
	// Artifact is the artifact id the check belongs to.
	Artifact string `json:"artifact"`
	// Name describes the expectation, e.g. "FS more accurate than
	// SingleRW".
	Name string `json:"name"`
	// Pass reports whether the hosted graph's sweep satisfied it.
	Pass bool `json:"pass"`
	// Detail carries the compared quantities.
	Detail string `json:"detail,omitempty"`
}

// Status is a sweep's externally visible state: the full per-node
// status tree plus the artifacts and checks produced so far.
type Status struct {
	// ID is the sweep id.
	ID string `json:"id"`
	// State is the sweep lifecycle state.
	State State `json:"state"`
	// Spec echoes the normalized submitted spec.
	Spec Spec `json:"spec"`
	// TraceID is the sweep-wide trace id stamped on every node's job.
	TraceID string `json:"trace_id,omitempty"`
	// Nodes lists every DAG node in plan order.
	Nodes []NodeStatus `json:"nodes"`
	// NodeCounts tallies nodes by state — the progress summary SSE
	// consumers typically render.
	NodeCounts map[NodeState]int `json:"node_counts"`
	// Artifacts lists the artifact files written so far.
	Artifacts []ArtifactInfo `json:"artifacts,omitempty"`
	// Checks lists the shape checks evaluated so far.
	Checks []CheckResult `json:"checks,omitempty"`
	// ChecksPass reports whether every evaluated check passed (true
	// when none were evaluated yet).
	ChecksPass bool `json:"checks_pass"`
	// Error describes why the sweep failed or was cancelled.
	Error string `json:"error,omitempty"`
}

// Trace is a sweep's stage-event timeline, the sweep-level analogue of
// a job trace: one trace id spans the sweep and all jobs it spawned.
type Trace struct {
	// SweepID is the sweep the events belong to.
	SweepID string `json:"sweep_id"`
	// TraceID is the sweep-wide trace id.
	TraceID string `json:"trace_id,omitempty"`
	// Events is the recorded stage timeline, oldest first.
	Events []obs.Event `json:"events"`
	// Dropped counts events lost to the ring buffer's capacity.
	Dropped int64 `json:"dropped,omitempty"`
}

// jobResult is the recorded outcome of one done sampling-job node:
// exactly the values aggregation consumes, serialized into the
// manifest so resumed sweeps do not re-run the job.
type jobResult struct {
	// Observations is the number of qualifying observations consumed.
	Observations int64 `json:"observations"`
	// Value is the final scalar estimate (scalar estimands).
	Value *float64 `json:"value,omitempty"`
	// Vector is the final vector estimate (vector estimands).
	Vector []float64 `json:"vector,omitempty"`
	// EdgeHash is the job's order-sensitive edge-sequence hash — the
	// determinism witness comparing resumed and uninterrupted runs.
	EdgeHash string `json:"edge_hash,omitempty"`
}

// aggResult is the recorded outcome of one aggregation node: the
// per-method error summary a figure node renders. NMSE entries where
// the truth is zero (undefined error) are stored as the sentinel -1,
// since JSON cannot carry NaN.
type aggResult struct {
	// Method is the method key the aggregate describes.
	Method string `json:"method"`
	// GM is the geometric mean of the valid per-index errors (scalar
	// estimands: the plain NMSE).
	GM float64 `json:"gm"`
	// NMSE is the per-index error curve (vector estimands), -1 where
	// undefined.
	NMSE []float64 `json:"nmse,omitempty"`
	// Bias is the relative bias 1 − E[θ̂]/θ (scalar estimands).
	Bias float64 `json:"bias,omitempty"`
	// Mean is the mean estimate across runs (scalar estimands).
	Mean float64 `json:"mean,omitempty"`
	// Truth is the exact value on the hosted graph (scalar estimands).
	Truth float64 `json:"truth,omitempty"`
	// Runs is the number of Monte Carlo runs aggregated.
	Runs int `json:"runs"`
}

// figResult is the recorded outcome of one figure node.
type figResult struct {
	// Artifacts lists the files the node wrote.
	Artifacts []ArtifactInfo `json:"artifacts"`
	// Checks lists the shape checks the node evaluated.
	Checks []CheckResult `json:"checks"`
}

// nodeKind enumerates DAG node kinds.
type nodeKind string

const (
	kindJob       nodeKind = "job"
	kindAggregate nodeKind = "aggregate"
	kindFigure    nodeKind = "figure"
)

// node is one DAG node. The immutable plan fields are set by the
// planner; the mutable state fields are guarded by the owning sweep's
// mutex.
type node struct {
	id       string
	kind     nodeKind
	level    int
	deps     []string
	artifact string     // artifact id this node belongs to
	method   string     // method key (job and aggregate nodes)
	run      int        // Monte Carlo run index (job nodes)
	jobSpec  *jobs.Spec // sampling job to submit (job nodes)
	planSkip string     // non-empty: planned as skipped, with reason

	state  NodeState
	jobID  string
	err    string
	result json.RawMessage
	digest string
}

// status renders the node's externally visible state. Callers hold the
// sweep mutex.
func (n *node) status() NodeStatus {
	return NodeStatus{
		ID:     n.id,
		Kind:   string(n.kind),
		Level:  n.level,
		Deps:   n.deps,
		State:  n.state,
		JobID:  n.jobID,
		Digest: n.digest,
		Error:  n.err,
	}
}
