package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// JobProgress is one job's current state as served by /progress.
type JobProgress struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	State    string `json:"state"`
	// Resumed marks jobs whose result came from a checkpoint rather
	// than fresh execution — the distinction the progress summary
	// surfaces so resume effectiveness is visible.
	Resumed bool `json:"resumed"`
	// key identifies the job (see Progress.Update) and orders jobs
	// that share a workload and config label.
	key string
}

// ProgressSnapshot is the stable JSON shape of the /progress endpoint:
// jobs sorted by (workload, config, job key) plus per-state totals.
type ProgressSnapshot struct {
	Jobs   []JobProgress  `json:"jobs"`
	Counts map[string]int `json:"counts"`
}

// Progress tracks live per-job state for the /progress endpoint and
// the end-of-campaign summary. It is safe for concurrent use. A nil
// *Progress absorbs all operations.
type Progress struct {
	mu   sync.Mutex
	jobs map[string]*JobProgress
}

// NewProgress returns an empty tracker.
func NewProgress() *Progress {
	return &Progress{jobs: make(map[string]*JobProgress)}
}

// Update moves the job identified by key to state; workload and
// config are its display labels. The key, not the labels, identifies
// the job, because distinct cells can share a config label (CGHC
// geometries, run-ahead distances, a sampled cell and its full-detail
// twin). Terminal states replace in-flight ones; a resumed job stays
// marked resumed.
func (p *Progress) Update(state JobState, key, workload, config string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	j := p.jobs[key]
	if j == nil {
		j = &JobProgress{Workload: workload, Config: config, key: key}
		p.jobs[key] = j
	}
	j.State = string(state)
	if state == JobResumed {
		j.Resumed = true
	}
}

// Snapshot returns the current state of every job, sorted, with
// per-state counts.
func (p *Progress) Snapshot() ProgressSnapshot {
	snap := ProgressSnapshot{Counts: make(map[string]int)}
	if p == nil {
		return snap
	}
	p.mu.Lock()
	for _, j := range p.jobs {
		snap.Jobs = append(snap.Jobs, *j)
		snap.Counts[j.State]++
	}
	p.mu.Unlock()
	sort.Slice(snap.Jobs, func(i, k int) bool {
		a, b := &snap.Jobs[i], &snap.Jobs[k]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		return a.key < b.key
	})
	return snap
}

// Count returns how many jobs are currently in state.
func (p *Progress) Count(state JobState) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, j := range p.jobs {
		if j.State == string(state) {
			n++
		}
	}
	return n
}

// WriteJSON writes the snapshot as indented JSON (encoding/json
// marshals the counts map in sorted key order, so the output is stable
// for a settled campaign).
func (p *Progress) WriteJSON(w io.Writer) error {
	snap := p.Snapshot()
	if snap.Jobs == nil {
		snap.Jobs = []JobProgress{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
