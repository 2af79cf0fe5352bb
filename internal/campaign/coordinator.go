package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cgp"
	"cgp/internal/obs"
)

// Options configures a Coordinator.
type Options struct {
	// Workers is the number of worker slots (and shards). Required.
	Workers int
	// Spec is the runner spec shipped to every worker; its
	// CheckpointDir is where streamed records are imported. Required.
	Spec RunnerSpec
	// Command builds the worker process for a slot — typically
	// `experiments -worker` via exec.CommandContext. The coordinator
	// owns the process's stdin/stdout; the hook may wire stderr and
	// environment. Required.
	Command func(ctx context.Context, slot int) (*exec.Cmd, error)
	// Log receives progress lines; nil disables.
	Log func(format string, args ...any)
	// Obs, when set, folds forwarded worker run-log entries into its
	// run log, tracks per-worker lifetime spans and counts imports,
	// restarts and reassignments in the wall registry.
	Obs *obs.Observability
	// StallTimeout is how long a worker may go without progress
	// (records, events or batch completions — heartbeats do not count)
	// before its outstanding jobs are shadowed onto another worker.
	// 0 means the default (2m); negative disables stall detection.
	StallTimeout time.Duration
	// ShutdownTimeout bounds the wait for workers to exit after their
	// stdin closes. 0 means the default (10s).
	ShutdownTimeout time.Duration
	// RestartBudget is how many times a slot's dead worker is
	// respawned before its jobs are reassigned to surviving workers.
	// 0 means the default (2); negative disables respawns.
	RestartBudget int
	// OnRecord, when set, observes every imported record (test hook:
	// the chaos suite kills workers at exact record counts).
	OnRecord func(worker, key string)
}

// Stats summarizes a coordinator run.
type Stats struct {
	// Jobs is the campaign size.
	Jobs int
	// Imported and Duplicates count streamed records by first-writer
	// outcome: a duplicate means another worker (or an earlier
	// generation of the same slot) already delivered the cell.
	Imported   int
	Duplicates int
	// Failed lists jobs that failed deterministically on a worker.
	Failed []JobFailure
	// Restarts counts dead workers respawned onto their slot.
	Restarts int
	// Reassigned counts jobs handed to a different worker after a
	// death past the restart budget or a stall.
	Reassigned int
}

// Coordinator drives a sharded campaign over worker processes. One
// Run per Coordinator.
type Coordinator struct {
	o Options

	// mu guards procs; everything else is touched only by Run's loop.
	mu    sync.Mutex
	procs []*proc
}

// proc is one live worker process (a slot's current generation).
type proc struct {
	slot  int
	id    string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	span  *obs.Span
	// outstanding is the jobs assigned to this worker and not yet
	// settled; only Run's loop touches it.
	outstanding map[int]JobSpec
	// progress resets the watchdog (capacity 1, non-blocking sends).
	progress chan struct{}
	// stopped is closed when the proc's exit is processed.
	stopped chan struct{}
	// readerDone is closed when the stdout reader finishes, so the
	// waiter never calls cmd.Wait while frames are still in flight
	// (Wait closes the stdout pipe).
	readerDone chan struct{}
}

const (
	evMsg = iota
	evExit
	evStall
)

// event is one occurrence delivered to Run's loop: a decoded frame, a
// process exit, or a watchdog stall.
type event struct {
	kind int
	p    *proc
	msg  Message
	err  error
}

// WorkerID names a slot's worker: "w1".."wN". Stable across respawns,
// so the run log attributes a restarted shard to the same id.
func WorkerID(slot int) string { return fmt.Sprintf("w%d", slot+1) }

// WorkerIDs lists the ids of an n-worker campaign, for run-log
// validation whitelists.
func WorkerIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = WorkerID(i)
	}
	return ids
}

// New returns a Coordinator with defaults applied.
func New(o Options) *Coordinator {
	if o.StallTimeout == 0 {
		o.StallTimeout = 2 * time.Minute
	}
	if o.ShutdownTimeout == 0 {
		o.ShutdownTimeout = 10 * time.Second
	}
	if o.RestartBudget == 0 {
		o.RestartBudget = 2
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return &Coordinator{o: o}
}

// KillWorker SIGKILLs the named worker's current process, returning
// whether it was found alive. The coordinator reacts exactly as it
// would to any other worker death (respawn, then reassignment); the
// chaos suite uses this to prove the campaign survives.
func (c *Coordinator) KillWorker(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.procs {
		if p != nil && p.id == id && p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			return true
		}
	}
	return false
}

// Run partitions jobs into shards, drives the workers, and returns
// once every job is settled (imported, or recorded as a deterministic
// failure) or no path forward remains. An error means some jobs were
// not settled — the caller's merge step recomputes those cells
// in-process, so a coordinator error degrades wall-clock, never
// results.
func (c *Coordinator) Run(ctx context.Context, jobs []JobSpec) (Stats, error) {
	st := Stats{Jobs: len(jobs)}
	if c.o.Workers <= 0 || c.o.Command == nil || c.o.Spec.CheckpointDir == "" {
		return st, errors.New("campaign: coordinator needs Workers, Command and a checkpoint dir")
	}
	pending := make(map[int]JobSpec, len(jobs))
	for _, j := range jobs {
		if _, dup := pending[j.ID]; dup {
			return st, fmt.Errorf("campaign: duplicate job id %d", j.ID)
		}
		pending[j.ID] = j
	}
	if len(jobs) == 0 {
		return st, nil
	}

	// done releases every per-proc goroutine when Run returns.
	done := make(chan struct{})
	defer close(done)
	events := make(chan event, 64)
	restarts := make([]int, c.o.Workers)

	shards := Partition(jobs, c.o.Workers)
	c.mu.Lock()
	c.procs = make([]*proc, c.o.Workers)
	c.mu.Unlock()
	for slot, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		p, err := c.spawn(ctx, slot, shard, events, done)
		if err != nil {
			c.killAll()
			return st, err
		}
		c.setProc(slot, p)
	}

	for len(pending) > 0 {
		select {
		case ev := <-events:
			var err error
			switch ev.kind {
			case evMsg:
				c.handleMsg(ev.p, ev.msg, pending, &st)
			case evExit:
				err = c.handleExit(ctx, ev.p, ev.err, pending, &st, restarts, events, done)
			case evStall:
				c.handleStall(ev.p, pending, &st)
			}
			if err != nil {
				c.killAll()
				return st, err
			}
		case <-ctx.Done():
			c.killAll()
			return st, ctx.Err()
		}
	}

	c.shutdown(ctx, events, pending, &st)
	return st, nil
}

// spawn starts a worker on slot with an initial batch and wires its
// reader, waiter and watchdog goroutines.
func (c *Coordinator) spawn(ctx context.Context, slot int, batch []JobSpec, events chan<- event, done <-chan struct{}) (*proc, error) {
	cmd, err := c.o.Command(ctx, slot)
	if err != nil {
		return nil, fmt.Errorf("campaign: worker command: %w", err)
	}
	id := WorkerID(slot)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("campaign: %s stdin: %w", id, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("campaign: %s stdout: %w", id, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("campaign: start %s: %w", id, err)
	}
	p := &proc{
		slot:        slot,
		id:          id,
		cmd:         cmd,
		stdin:       stdin,
		enc:         json.NewEncoder(stdin),
		outstanding: make(map[int]JobSpec, len(batch)),
		progress:    make(chan struct{}, 1),
		stopped:     make(chan struct{}),
		readerDone:  make(chan struct{}),
	}
	if o := c.o.Obs; o != nil {
		p.span = o.Span("worker "+id, "campaign").Arg("worker", id)
	}
	spec := c.o.Spec
	spec.Worker = id
	// Each slot checkpoints into its own subdirectory: the streamed
	// records the coordinator imports into the merge dir are then the
	// only way results cross processes — exactly the situation of a
	// remote transport with no shared filesystem — while a respawned
	// worker still resumes from its slot's surviving checkpoints.
	spec.CheckpointDir = filepath.Join(c.o.Spec.CheckpointDir, "shard-"+id)
	if err := p.send(Message{Type: msgInit, Spec: &spec}); err != nil {
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("campaign: init %s: %w", id, err)
	}
	if err := p.assign(batch); err != nil {
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("campaign: assign %s: %w", id, err)
	}
	c.o.Log("campaign: %s started with %d jobs", id, len(batch))

	go func() {
		defer close(p.readerDone)
		dec := json.NewDecoder(stdout)
		for {
			var m Message
			if err := dec.Decode(&m); err != nil {
				return // exit surfaces through the waiter
			}
			select {
			case events <- event{kind: evMsg, p: p, msg: m}:
			case <-done:
				return
			}
		}
	}()
	go func() {
		<-p.readerDone
		err := cmd.Wait()
		select {
		case events <- event{kind: evExit, p: p, err: err}:
		case <-done:
		}
	}()
	if c.o.StallTimeout > 0 {
		stall := c.o.StallTimeout
		go func() {
			for {
				select {
				case <-p.progress:
				case <-time.After(stall):
					select {
					case events <- event{kind: evStall, p: p}:
					case <-p.stopped:
					case <-done:
					}
					return // one stall report per generation
				case <-p.stopped:
					return
				case <-done:
					return
				}
			}
		}()
	}
	return p, nil
}

// handleMsg processes one worker frame.
func (c *Coordinator) handleMsg(p *proc, m Message, pending map[int]JobSpec, st *Stats) {
	switch m.Type {
	case msgRecord:
		p.noteProgress()
		key, wrote, err := cgp.ImportRecord(c.o.Spec.CheckpointDir, m.Record)
		if err != nil {
			// A bad record is not fatal: the cell recomputes at merge.
			c.wallIncr("campaign_records_rejected", 1)
			c.o.Log("campaign: %s: rejected record: %v", p.id, err)
			return
		}
		if wrote {
			st.Imported++
			c.wallIncr("campaign_records_imported", 1)
		} else {
			st.Duplicates++
			c.wallIncr("campaign_records_duplicate", 1)
		}
		if c.o.OnRecord != nil {
			c.o.OnRecord(p.id, key)
		}
	case msgEvent:
		p.noteProgress()
		var e obs.RunLogEntry
		if err := json.Unmarshal(m.Entry, &e); err != nil {
			c.o.Log("campaign: %s: bad event: %v", p.id, err)
			return
		}
		if o := c.o.Obs; o != nil {
			o.Log.EmitEntry(e)
			o.Progress.Update(obs.JobState(e.Event), e.Key, e.Workload, e.Config)
		}
	case msgBatchDone:
		p.noteProgress()
		for _, id := range m.Done {
			delete(pending, id)
			delete(p.outstanding, id)
		}
		for _, f := range m.Failed {
			if _, open := pending[f.ID]; open {
				delete(pending, f.ID)
				st.Failed = append(st.Failed, f)
				c.wallIncr("campaign_jobs_failed", 1)
				c.o.Log("campaign: %s: job %d failed: %s", p.id, f.ID, f.Error)
			}
			delete(p.outstanding, f.ID)
		}
	case msgError:
		c.o.Log("campaign: %s: %s", p.id, m.Error)
	}
}

// handleExit reacts to a worker process exiting. A current-generation
// worker with outstanding jobs is respawned onto its slot while the
// slot's restart budget lasts; past it, the jobs move to the
// least-loaded surviving worker. First-writer-wins imports make the
// partial overlap (records the dead worker already streamed) free.
func (c *Coordinator) handleExit(ctx context.Context, p *proc, exitErr error, pending map[int]JobSpec, st *Stats, restarts []int, events chan<- event, done <-chan struct{}) error {
	close(p.stopped)
	p.span.End()
	c.mu.Lock()
	current := c.procs[p.slot] == p
	if current {
		c.procs[p.slot] = nil
	}
	c.mu.Unlock()
	if !current {
		return nil // an earlier generation of a respawned slot
	}
	out := p.openJobs(pending)
	if len(out) == 0 {
		if len(pending) > 0 {
			c.o.Log("campaign: %s exited (%v)", p.id, exitErr)
		}
		return nil
	}
	c.o.Log("campaign: %s exited with %d jobs outstanding (%v)", p.id, len(out), exitErr)
	if restarts[p.slot] < c.o.RestartBudget {
		restarts[p.slot]++
		np, err := c.spawn(ctx, p.slot, out, events, done)
		if err == nil {
			c.setProc(p.slot, np)
			st.Restarts++
			c.wallIncr("campaign_worker_restarts", 1)
			return nil
		}
		c.o.Log("campaign: respawn %s: %v", p.id, err)
	}
	t := c.leastLoaded(nil)
	if t == nil {
		return fmt.Errorf("campaign: no workers left with %d jobs unsettled", len(pending))
	}
	if err := t.assign(out); err != nil {
		// t is dying too; its own exit event will move the jobs on.
		c.o.Log("campaign: reassign to %s: %v", t.id, err)
		return nil
	}
	st.Reassigned += len(out)
	c.wallIncr("campaign_jobs_reassigned", int64(len(out)))
	c.o.Log("campaign: reassigned %d jobs from %s to %s", len(out), p.id, t.id)
	return nil
}

// handleStall shadows a silent worker's open jobs onto another worker.
// The original keeps running — if it was merely slow, the first of the
// two copies to deliver each record wins and the other import is a
// counted duplicate.
func (c *Coordinator) handleStall(p *proc, pending map[int]JobSpec, st *Stats) {
	c.mu.Lock()
	current := c.procs[p.slot] == p
	c.mu.Unlock()
	if !current {
		return
	}
	out := p.openJobs(pending)
	if len(out) == 0 {
		return
	}
	t := c.leastLoaded(p)
	if t == nil {
		c.o.Log("campaign: %s stalled; no other worker to shadow its %d jobs", p.id, len(out))
		return
	}
	if err := t.assign(out); err != nil {
		c.o.Log("campaign: shadow to %s: %v", t.id, err)
		return
	}
	st.Reassigned += len(out)
	c.wallIncr("campaign_jobs_reassigned", int64(len(out)))
	c.o.Log("campaign: %s stalled; shadowed %d jobs onto %s", p.id, len(out), t.id)
}

// shutdown closes worker stdins (their EOF signal) and reaps exits,
// still importing any late records; stragglers are killed after
// ShutdownTimeout.
func (c *Coordinator) shutdown(ctx context.Context, events <-chan event, pending map[int]JobSpec, st *Stats) {
	c.mu.Lock()
	var alive []*proc
	for _, p := range c.procs {
		if p != nil {
			alive = append(alive, p)
		}
	}
	c.mu.Unlock()
	for _, p := range alive {
		_ = p.stdin.Close()
	}
	remaining := len(alive)
	kill := time.After(c.o.ShutdownTimeout)
	for remaining > 0 {
		select {
		case ev := <-events:
			switch ev.kind {
			case evExit:
				close(ev.p.stopped)
				ev.p.span.End()
				c.setProc(ev.p.slot, nil)
				remaining--
			case evMsg:
				c.handleMsg(ev.p, ev.msg, pending, st)
			}
		case <-kill:
			c.o.Log("campaign: killing %d workers that ignored shutdown", remaining)
			c.killAll()
		case <-ctx.Done():
			c.killAll()
			return
		}
	}
}

func (c *Coordinator) setProc(slot int, p *proc) {
	c.mu.Lock()
	c.procs[slot] = p
	c.mu.Unlock()
}

// leastLoaded returns the live worker with the fewest open jobs,
// excluding except; ties break toward the lowest slot.
func (c *Coordinator) leastLoaded(except *proc) *proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *proc
	for _, p := range c.procs {
		if p == nil || p == except {
			continue
		}
		if best == nil || len(p.outstanding) < len(best.outstanding) {
			best = p
		}
	}
	return best
}

func (c *Coordinator) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.procs {
		if p != nil && p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
		}
	}
}

func (c *Coordinator) wallIncr(name string, n int64) {
	if o := c.o.Obs; o != nil {
		o.Wall.Incr(name, n)
	}
}

// send writes one frame to the worker's stdin (Run's loop is the only
// writer, so no lock).
func (p *proc) send(m Message) error {
	return p.enc.Encode(m)
}

// assign sends a jobs batch and tracks it as outstanding.
func (p *proc) assign(batch []JobSpec) error {
	if err := p.send(Message{Type: msgJobs, Jobs: batch}); err != nil {
		return err
	}
	for _, j := range batch {
		p.outstanding[j.ID] = j
	}
	return nil
}

// openJobs is the ID-ordered subset of outstanding still pending
// campaign-wide (jobs another worker already settled drop out).
func (p *proc) openJobs(pending map[int]JobSpec) []JobSpec {
	var out []JobSpec
	for id, j := range p.outstanding {
		if _, open := pending[id]; open {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// noteProgress resets the slot's watchdog.
func (p *proc) noteProgress() {
	select {
	case p.progress <- struct{}{}:
	default:
	}
}
