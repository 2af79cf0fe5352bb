// Package campaign distributes a figure campaign across worker
// processes (DESIGN.md §15).
//
// A Coordinator expands a campaign Manifest into JobSpecs, partitions
// them into shards, and drives N workers over a line-oriented JSON
// protocol on the workers' stdin/stdout. Each worker is a thin wrapper
// over the root package's Runner: it simulates its shard against a
// shared checkpoint directory and streams every settled cell back as a
// checkpoint record in wire format. The coordinator imports records
// first-writer-wins, so duplicated work (stall reassignment, a killed
// worker's partial shard re-run) is harmless. The merge step is the
// ordinary report path re-run over the populated checkpoint directory —
// simulations are deterministic and any missing cell recomputes
// identically in-process, which is why merged reports are byte-identical
// regardless of shard count, worker deaths or reassignment.
//
// The transport is deliberately just an io.Reader/io.Writer pair plus a
// process handle: the local exec transport here spawns
// `experiments -worker` subprocesses, and an SSH or container transport
// only needs to supply a different exec.Cmd.
package campaign

import (
	"encoding/json"
	"io"
	"sync"

	"cgp"
	"cgp/internal/sample"
)

// Message types, coordinator→worker and worker→coordinator. Unknown
// types are ignored by both sides for forward compatibility.
const (
	// msgInit (c→w) is the first message on a worker's stdin: its
	// identity and the RunnerSpec to build its Runner from.
	msgInit = "init"
	// msgJobs (c→w) assigns a batch of jobs. The worker runs the batch
	// and answers with one msgBatchDone.
	msgJobs = "jobs"
	// msgHello (w→c) acknowledges init.
	msgHello = "hello"
	// msgHeartbeat (w→c) is emitted periodically so a transport can
	// distinguish a slow worker from a dead pipe. The coordinator's
	// stall detector deliberately ignores heartbeats: a wedged
	// simulation still heartbeats, so only records, forwarded log
	// events and batch completions count as progress.
	msgHeartbeat = "heartbeat"
	// msgRecord (w→c) streams one settled cell's checkpoint record in
	// wire format (cgp.ImportRecord's input).
	msgRecord = "record"
	// msgEvent (w→c) forwards one JSONL run-log entry from the
	// worker's Runner, worker id already stamped.
	msgEvent = "event"
	// msgBatchDone (w→c) reports a finished batch: confirmed job IDs
	// and per-job deterministic failures.
	msgBatchDone = "batchdone"
	// msgError (w→c) reports a fatal worker-side error before exit.
	msgError = "error"
)

// Message is one frame of the coordinator↔worker protocol, a JSONL
// union keyed by Type; unused fields stay empty on the wire.
type Message struct {
	Type   string `json:"type"`
	Worker string `json:"worker,omitempty"`
	// Spec accompanies init.
	Spec *RunnerSpec `json:"spec,omitempty"`
	// Jobs accompanies a jobs batch.
	Jobs []JobSpec `json:"jobs,omitempty"`
	// Key and Record accompany record.
	Key    string          `json:"key,omitempty"`
	Record json.RawMessage `json:"record,omitempty"`
	// Entry accompanies event: one run-log JSONL line.
	Entry json.RawMessage `json:"entry,omitempty"`
	// Done and Failed accompany batchdone.
	Done   []int        `json:"done,omitempty"`
	Failed []JobFailure `json:"failed,omitempty"`
	// Error accompanies error.
	Error string `json:"error,omitempty"`
}

// JobSpec is one campaign cell in wire form: the workload by name (the
// worker reifies it at its own scale) plus the full config. IDs are
// assigned by Jobs and are unique within a campaign; the coordinator
// tracks completion by ID, never by position.
type JobSpec struct {
	ID       int        `json:"id"`
	Workload string     `json:"workload"`
	Config   cgp.Config `json:"config"`
}

// Key returns the cell's identity key (CampaignCell.Key's rule).
func (j JobSpec) Key() string { return cgp.CellKey(j.Workload, j.Config) }

// JobFailure is one job's deterministic failure: the same inputs would
// fail again, so the coordinator records it instead of reassigning.
type JobFailure struct {
	ID    int    `json:"id"`
	Error string `json:"error"`
}

// RunnerSpec is the serializable subset of cgp.RunnerOptions a worker
// needs to reproduce the coordinator's runner: everything that affects
// results, scopes or keys. Process-local options (Obs, OnRecord, Log)
// are installed by Serve itself.
type RunnerSpec struct {
	// Worker is the id assigned by the coordinator ("w1".."wN"),
	// stamped on the worker's run-log entries and spans.
	Worker         string        `json:"worker"`
	DB             cgp.DBOptions `json:"db"`
	Seed           int64         `json:"seed"`
	Workers        int           `json:"workers,omitempty"`
	CheckpointDir  string        `json:"checkpoint_dir"`
	Attribution    bool          `json:"attribution,omitempty"`
	Sampling       sample.Config `json:"sampling,omitempty"`
	SampledFigures []string      `json:"sampled_figures,omitempty"`
}

// Options expands the spec into RunnerOptions; the caller fills the
// process-local fields (Obs, OnRecord, Log).
func (s RunnerSpec) Options() cgp.RunnerOptions {
	return cgp.RunnerOptions{
		DB:             s.DB,
		Seed:           s.Seed,
		Workers:        s.Workers,
		CheckpointDir:  s.CheckpointDir,
		Attribution:    s.Attribution,
		Sampling:       s.Sampling,
		SampledFigures: s.SampledFigures,
	}
}

// safeEncoder serializes concurrent JSONL frames onto one writer: the
// worker's record hook, forwarded log lines and the main loop all write
// through it.
type safeEncoder struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

func newSafeEncoder(w io.Writer) *safeEncoder {
	return &safeEncoder{enc: json.NewEncoder(w)}
}

// send encodes one frame. Errors are sticky: after the peer goes away
// every later send is a cheap no-op and the first error is kept.
func (s *safeEncoder) send(m Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.enc.Encode(m)
	return s.err
}
