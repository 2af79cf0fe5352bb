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
	WallNs int64  `json:"wall_ns"`
}

// RunLog writes job lifecycle events as JSON Lines. It is safe for
// concurrent use; sequence numbers are assigned under the same lock
// that orders the writes, so seq is strictly increasing in file order.
// A nil *RunLog absorbs all operations.
type RunLog struct {
	mu  sync.Mutex
	out jsonlWriter
	seq int64
}

// NewRunLog returns a run log writing to w.
func NewRunLog(w io.Writer) *RunLog {
	return &RunLog{out: jsonlWriter{w: w}}
}

// Emit appends one lifecycle event. Write errors are sticky and
// reported by Err; emission never fails the campaign.
func (l *RunLog) Emit(state JobState, workload, config, detail string) {
	l.emit(RunLogEntry{Event: string(state), Workload: workload, Config: config, Detail: detail})
}

// emit stamps e with the next seq and the wall time and appends it.
func (l *RunLog) emit(e RunLogEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	e.WallNs = wallInt(nowWall())
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
// workload and config are non-empty, and seq strictly increases in
// file order. It returns the parsed entries for further assertions
// (the chaos suite checks lifecycle ordering per job).
func ValidateRunLog(r io.Reader) ([]RunLogEntry, error) {
	lastSeq := int64(0)
	return readJSONL(r, "run log", func(e *RunLogEntry) error {
		if !knownJobStates[JobState(e.Event)] {
			return fmt.Errorf("unknown event %q", e.Event)
		}
		if e.Workload == "" || e.Config == "" {
			return fmt.Errorf("empty workload or config")
		}
		if e.Seq <= lastSeq {
			return fmt.Errorf("seq %d not greater than previous %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		return nil
	})
}
