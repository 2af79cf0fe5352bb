package obs

import (
	"fmt"
	"io"
	"sync"
)

// JobState is a job lifecycle state, emitted to the run log and
// tracked by Progress. States are terminal or not: queued, started and
// replaying jobs are in flight; executed, replayed, resumed and failed
// jobs are settled.
type JobState string

const (
	// JobQueued: the job entered the campaign and is waiting for a
	// worker or for a singleflight leader to finish.
	JobQueued JobState = "queued"
	// JobStarted: a worker began simulating the job's cell.
	JobStarted JobState = "started"
	// JobExecuted: the cell was simulated to completion.
	JobExecuted JobState = "executed"
	// JobReplayed: the job's result came from replaying a recorded
	// trace another job produced (singleflight coalescing).
	JobReplayed JobState = "replayed"
	// JobResumed: the job's result was loaded from a checkpoint written
	// by an earlier campaign; nothing was simulated.
	JobResumed JobState = "resumed"
	// JobFailed: the job gave up after exhausting its retry budget (or
	// was cancelled).
	JobFailed JobState = "failed"
)

// Serving lifecycle states: the SQL server front-end logs its traffic
// through the same run-log machinery (entries carry the server's
// listen address as the workload and the client session as the
// config), so a serving run's artifact validates with the same schema
// as a campaign's.
const (
	// ServerStarted / ServerStopped bracket one serving process.
	ServerStarted JobState = "server-start"
	ServerStopped JobState = "server-stop"
	// ConnOpened / ConnClosed bracket one client connection.
	ConnOpened JobState = "conn-open"
	ConnClosed JobState = "conn-close"
	// QueryServed: a query completed and its response was written.
	QueryServed JobState = "served"
	// QueryShed: admission control rejected a query (ErrOverloaded).
	QueryShed JobState = "shed"
	// CaptureDropped: the live-capture ring dropped a query batch
	// under backpressure (the query itself was still served).
	CaptureDropped JobState = "capture-drop"
	// CaptureSealed: the live capture was sealed and written out.
	CaptureSealed JobState = "capture-seal"
)

// knownJobStates is the validation whitelist for ValidateRunLog.
var knownJobStates = map[JobState]bool{
	JobQueued:      true,
	JobStarted:     true,
	JobExecuted:    true,
	JobReplayed:    true,
	JobResumed:     true,
	JobFailed:      true,
	ServerStarted:  true,
	ServerStopped:  true,
	ConnOpened:     true,
	ConnClosed:     true,
	QueryServed:    true,
	QueryShed:      true,
	CaptureDropped: true,
	CaptureSealed:  true,
}

// RunLogEntry is one JSONL record of the structured run log. The log
// is a wall-clock-domain artifact: entry order and timestamps reflect
// the host schedule and differ run to run, but the set of
// (event, workload, config) tuples for a campaign is deterministic —
// which is exactly what the chaos suite asserts against.
type RunLogEntry struct {
	Seq      int64  `json:"seq"`
	Event    string `json:"event"`
	Workload string `json:"workload"`
	Config   string `json:"config"`
	// Key identifies the job the event belongs to (the runner's run
	// key); Workload and Config only label it, and distinct jobs can
	// share a label.
	Key    string `json:"key,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Worker names the process that observed the event: "main" for a
	// single-process campaign, "w1".."wN" for sharded campaign workers.
	// Forwarded entries (a coordinator folding worker logs into its
	// own) keep the originating worker id.
	Worker string `json:"worker"`
	WallNs int64  `json:"wall_ns"`
}

// DefaultWorker is the worker id stamped on entries when none is set:
// the single-process campaign's only "worker".
const DefaultWorker = "main"

// RunLog writes job lifecycle events as JSON Lines. It is safe for
// concurrent use; sequence numbers are assigned under the same lock
// that orders the writes, so seq is strictly increasing in file order.
// A nil *RunLog absorbs all operations.
type RunLog struct {
	mu     sync.Mutex
	out    jsonlWriter
	worker string
	seq    int64
}

// NewRunLog returns a run log writing to w.
func NewRunLog(w io.Writer) *RunLog {
	return &RunLog{out: jsonlWriter{w: w}}
}

// SetWorker sets the worker id stamped on subsequently emitted
// entries (the default is DefaultWorker).
func (l *RunLog) SetWorker(id string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.worker = id
	l.mu.Unlock()
}

// Emit appends one lifecycle event. Write errors are sticky and
// reported by Err; emission never fails the campaign.
func (l *RunLog) Emit(state JobState, workload, config, detail string) {
	l.emit(RunLogEntry{Event: string(state), Workload: workload, Config: config, Detail: detail})
}

// emit stamps e with this log's worker id and appends it.
func (l *RunLog) emit(e RunLogEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Worker = l.worker
	if e.Worker == "" {
		e.Worker = DefaultWorker
	}
	l.emitLocked(e)
}

// EmitEntry appends a fully formed entry, preserving its worker id and
// wall timestamp but restamping its sequence number under this log's
// lock. A campaign coordinator uses it to fold entries forwarded from
// worker processes into one file whose seq stays strictly increasing.
func (l *RunLog) EmitEntry(e RunLogEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Worker == "" {
		e.Worker = DefaultWorker
	}
	l.emitLocked(e)
}

// emitLocked assigns the next seq (and a wall timestamp when the entry
// has none) and writes the entry; the caller holds l.mu.
func (l *RunLog) emitLocked(e RunLogEntry) {
	l.seq++
	e.Seq = l.seq
	if e.WallNs == 0 {
		e.WallNs = wallInt(nowWall())
	}
	l.out.write(e)
}

// Err returns the first write or encode error, if any.
func (l *RunLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.out.err
}

// ValidateRunLog parses a JSONL run log and checks its schema: every
// line is a valid entry, events come from the known lifecycle set,
// workload, config and worker are non-empty, and seq strictly
// increases in file order. When workers are given, each entry's
// worker id must additionally come from that set — the experiments
// exit boundary passes the campaign's known ids ("main" plus
// "w1".."wN" when sharded), so an entry from an unknown or missing
// worker fails validation instead of slipping into the artifact. It
// returns the parsed entries for further assertions (the chaos suite
// checks lifecycle ordering per job).
func ValidateRunLog(r io.Reader, workers ...string) ([]RunLogEntry, error) {
	known := map[string]bool{}
	for _, w := range workers {
		known[w] = true
	}
	lastSeq := int64(0)
	return readJSONL(r, "run log", func(e *RunLogEntry) error {
		if !knownJobStates[JobState(e.Event)] {
			return fmt.Errorf("unknown event %q", e.Event)
		}
		if e.Workload == "" || e.Config == "" {
			return fmt.Errorf("empty workload or config")
		}
		if e.Worker == "" {
			return fmt.Errorf("missing worker id")
		}
		if len(known) > 0 && !known[e.Worker] {
			return fmt.Errorf("unknown worker %q", e.Worker)
		}
		if e.Seq <= lastSeq {
			return fmt.Errorf("seq %d not greater than previous %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		return nil
	})
}
