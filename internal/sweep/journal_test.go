package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frontier/internal/gen"
	"frontier/internal/graph"
	"frontier/internal/jobs"
	"frontier/internal/xrand"
)

// journalFixture is a finished sweep whose job checkpoints, manifest
// journal and artifacts live under root.
type journalFixture struct {
	g         *graph.Graph
	root      string
	id        string
	status    Status
	artifacts map[string][]byte
}

func (f journalFixture) journalPath() string {
	return filepath.Join(f.root, "sweeps", f.id+".json")
}

// openManagers builds job and sweep managers over the fixture's dirs,
// restoring whatever they hold; both are stopped at cleanup if the
// test has not stopped them.
func (f journalFixture) openManagers(t *testing.T) (*jobs.Manager, *Manager) {
	t.Helper()
	jm, err := jobs.NewManager(f.g, jobs.WithWorkers(2),
		jobs.WithCheckpointDir(filepath.Join(f.root, "jobs")))
	if err != nil {
		t.Fatalf("jobs manager: %v", err)
	}
	m, err := NewManager(jm, testSource{g: f.g},
		WithDir(filepath.Join(f.root, "sweeps")),
		WithArtifactDir(filepath.Join(f.root, "artifacts")))
	if err != nil {
		jm.Stop()
		t.Fatalf("sweep manager: %v", err)
	}
	t.Cleanup(func() {
		m.Stop()
		jm.Stop()
	})
	return jm, m
}

// finishedSweep runs a small fig1 sweep to completion with every
// directory persisted, stops its managers, and keeps the artifact bytes
// as the control for resumed runs.
func finishedSweep(t *testing.T) journalFixture {
	t.Helper()
	f := journalFixture{g: gen.BarabasiAlbert(xrand.New(11), 800, 3), root: t.TempDir()}
	jm, m := f.openManagers(t)
	sw, err := m.Submit(Spec{Artifact: "fig1", Seed: 5, Runs: 4, Parallel: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	f.id, f.status = sw.ID(), waitTerminal(t, sw, time.Minute)
	m.Stop()
	jm.Stop()
	if f.status.State != StateDone {
		t.Fatalf("control sweep %s: %q", f.status.State, f.status.Error)
	}
	f.artifacts = readArtifacts(t, filepath.Join(f.root, "artifacts", f.id))
	return f
}

// readArtifacts reads every file in an artifact directory.
func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read artifacts: %v", err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read artifact: %v", err)
		}
		out[e.Name()] = data
	}
	return out
}

// resumeAndCompare reopens the fixture's dirs, waits for the sweep to
// finish, and checks its artifacts against the control's bytes.
func (f journalFixture) resumeAndCompare(t *testing.T) Status {
	t.Helper()
	_, m := f.openManagers(t)
	sw, ok := m.Get(f.id)
	if !ok {
		t.Fatalf("manager did not load sweep %s", f.id)
	}
	st := waitTerminal(t, sw, time.Minute)
	if st.State != StateDone {
		t.Fatalf("resumed sweep %s: %q, counts %v", st.State, st.Error, st.NodeCounts)
	}
	if len(st.Artifacts) != len(f.status.Artifacts) {
		t.Fatalf("artifacts %+v, control %+v", st.Artifacts, f.status.Artifacts)
	}
	got := readArtifacts(t, filepath.Join(f.root, "artifacts", f.id))
	for name, want := range f.artifacts {
		if !bytes.Equal(got[name], want) {
			t.Errorf("artifact %s differs from the control run (%d vs %d bytes)", name, len(got[name]), len(want))
		}
	}
	return st
}

func readJournal(t *testing.T, path string) (manifest, []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	man, err := replayManifest(data)
	if err != nil {
		t.Fatalf("replay journal: %v", err)
	}
	return man, data
}

// TestSweepJournalGrowsLinearly pins the manifest journal's size on a
// fig5 sweep: each transition appends one short line and each done
// node's result is written exactly once, so the file holds one copy of
// the results plus a bounded overhead per transition.
func TestSweepJournalGrowsLinearly(t *testing.T) {
	ds := gen.FlickrLike(xrand.New(1), 0.1)
	_, m := newTestManagers(t, ds.Graph, ds.Graph, ds.Groups, 8)
	sw, err := m.Submit(Spec{Artifact: "fig5"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := waitTerminal(t, sw, 3*time.Minute)
	if st.State != StateDone {
		t.Fatalf("sweep %s: %q", st.State, st.Error)
	}
	m.Stop() // returns once the scheduler has written the final line
	man, data := readJournal(t, filepath.Join(m.dir, sw.ID()+".json"))
	transitions := bytes.Count(data, []byte{'\n'})
	if transitions < len(st.Nodes) {
		t.Fatalf("journal has %d lines for %d nodes; want at least one per node", transitions, len(st.Nodes))
	}
	var results int
	for _, n := range man.Nodes {
		results += len(n.Result)
		if n.State != NodeDone {
			continue
		}
		if c := bytes.Count(data, []byte(`"digest":"`+n.Digest+`"`)); c != 1 {
			t.Errorf("node %s's done record appears %d times, want once", n.ID, c)
		}
	}
	if limit := results + 512*transitions; len(data) > limit {
		t.Fatalf("journal is %d bytes; results total %d over %d transitions (limit %d)",
			len(data), results, transitions, limit)
	}
	if man.State != StateDone || len(man.Nodes) != len(st.Nodes) ||
		len(man.Artifacts) != len(st.Artifacts) || len(man.Checks) != len(st.Checks) {
		t.Fatalf("replayed manifest state=%s nodes=%d artifacts=%d checks=%d, status has %s/%d/%d/%d",
			man.State, len(man.Nodes), len(man.Artifacts), len(man.Checks),
			st.State, len(st.Nodes), len(st.Artifacts), len(st.Checks))
	}
	for i, n := range man.Nodes {
		want := st.Nodes[i]
		if n.ID != want.ID || n.State != want.State || n.JobID != want.JobID || n.Digest != want.Digest {
			t.Fatalf("replayed node %+v, status %+v", n, want)
		}
	}
}

// TestSweepJournalTornTailResumes cuts the journal in the middle of a
// record, as a crash mid-append leaves it: the torn line is dropped,
// the sweep resumes from the lines before it, finishes with the
// control's artifact bytes, and the first persist compacts the file
// back to one base line plus appends.
func TestSweepJournalTornTailResumes(t *testing.T) {
	f := finishedSweep(t)
	data, err := os.ReadFile(f.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	keep := len(lines) / 2
	torn := append(bytes.Join(lines[:keep], nil), lines[keep][:len(lines[keep])/2]...)
	if err := os.WriteFile(f.journalPath(), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if man, _ := readJournal(t, f.journalPath()); man.State.Terminal() {
		t.Fatalf("cut journal replays as %s; the cut should land mid-sweep", man.State)
	}
	if err := os.RemoveAll(filepath.Join(f.root, "artifacts")); err != nil {
		t.Fatal(err)
	}
	f.resumeAndCompare(t)

	_, data = readJournal(t, f.journalPath())
	first, _, _ := bytes.Cut(data, []byte{'\n'})
	var base manifest
	if err := json.Unmarshal(first, &base); err != nil || base.ID != f.id {
		t.Fatalf("resumed journal's first line is not a full manifest (id %q): %v", base.ID, err)
	}
	var doneInBase int
	for _, n := range base.Nodes {
		if n.State == NodeDone {
			doneInBase++
		}
	}
	if doneInBase == 0 {
		t.Fatal("resumed journal kept the submit-time base line; the first persist should rewrite it with the restored nodes")
	}
}

// TestSweepLegacyManifestResumes loads a manifest in the older
// single-document form (one JSON object, no trailing newline) for a
// sweep that stopped half done: it resumes without re-running its
// done nodes and finishes with the control's artifact bytes.
func TestSweepLegacyManifestResumes(t *testing.T) {
	f := finishedSweep(t)
	man, _ := readJournal(t, f.journalPath())
	man.State = StateRunning
	man.Artifacts, man.Checks = nil, nil
	kept := map[string]manifestNode{}
	for i, n := range man.Nodes {
		if strings.Contains(n.ID, "/run00") && i%2 == 0 {
			kept[n.ID] = n
			continue
		}
		man.Nodes[i] = manifestNode{ID: n.ID, State: NodePending}
	}
	legacy, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.journalPath(), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(f.root, "artifacts")); err != nil {
		t.Fatal(err)
	}
	st := f.resumeAndCompare(t)
	for id, was := range kept {
		now := nodeByID(t, st, id)
		if now.JobID != was.JobID || now.Digest != was.Digest {
			t.Errorf("done node %s re-ran: job %s -> %s, digest %s -> %s", id, was.JobID, now.JobID, was.Digest, now.Digest)
		}
	}
}

// TestSweepManifestDigestMismatchReruns appends a journal line whose
// done results no longer match their digests: those nodes come back
// pending with their job ids, the finished sweep reopens, reattaches
// the job, re-renders the figure, and ends done with the same digests
// and artifacts and no duplicated artifact entries.
func TestSweepManifestDigestMismatchReruns(t *testing.T) {
	f := finishedSweep(t)
	job := nodeByID(t, f.status, "fig1/single/run000")
	fig := nodeByID(t, f.status, "fig1/figure")
	bad := manifestDelta{State: StateDone, Nodes: []manifestNode{
		{ID: job.ID, State: NodeDone, JobID: job.JobID, Result: json.RawMessage(`{"edge_hash":"0"}`), Digest: job.Digest},
		{ID: fig.ID, State: NodeDone, Result: json.RawMessage(`{}`), Digest: fig.Digest},
	}}
	line, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendLine(f.journalPath(), append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	st := f.resumeAndCompare(t)
	for _, was := range []NodeStatus{job, fig} {
		now := nodeByID(t, st, was.ID)
		if now.State != NodeDone || now.JobID != was.JobID || now.Digest != was.Digest {
			t.Errorf("node %s after re-run: %+v, want done with job %q digest %s", was.ID, now, was.JobID, was.Digest)
		}
	}
	man, _ := readJournal(t, f.journalPath())
	for _, n := range man.Nodes {
		if n.State == NodeDone && digestOf(n.Result) != n.Digest {
			t.Errorf("journal still holds node %s's result that fails its digest", n.ID)
		}
	}
}

// TestSweepManifestQuarantine starts a manager over a directory holding
// one valid manifest and two bad ones: the bad files are moved aside
// as .corrupt, the valid sweep loads, and new sweeps do not reuse the
// quarantined ids.
func TestSweepManifestQuarantine(t *testing.T) {
	f := finishedSweep(t)
	valid, err := os.ReadFile(f.journalPath())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(f.root, "sweeps")
	bad := map[string][]byte{
		"sweep-000002.json": []byte(`{"id":"sweep-000002","spec":`),                  // undecodable
		"sweep-000003.json": valid,                                                   // id mismatch
		"sweep-000004.json": []byte(`{"id":"sweep-000004","spec":{},"state":"odd"}`), // unknown state
	}
	for name, data := range bad {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, m := f.openManagers(t)
	sw, ok := m.Get(f.id)
	if !ok || sw.State() != StateDone {
		t.Fatalf("valid sweep %s not loaded as done (found %v)", f.id, ok)
	}
	if n := len(m.Sweeps()); n != 1 {
		t.Fatalf("manager holds %d sweeps, want only the valid one", n)
	}
	for name := range bad {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s still in place (stat error %v)", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".corrupt")); err != nil {
			t.Errorf("%s not quarantined: %v", name, err)
		}
	}
	next, err := m.Submit(Spec{Artifact: "fig1", Runs: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if want := fmt.Sprintf("sweep-%06d", 5); next.ID() != want {
		t.Fatalf("new sweep id %s, want %s past the quarantined ids", next.ID(), want)
	}
	waitTerminal(t, next, time.Minute)
}
