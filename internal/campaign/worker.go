package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"cgp"
	"cgp/internal/obs"
)

// heartbeatInterval paces msgHeartbeat frames. Heartbeats prove the
// pipe, not progress: the coordinator's stall detector ignores them.
const heartbeatInterval = 500 * time.Millisecond

// Serve runs the worker side of the protocol: read an init frame from
// in, build a Runner per its spec, then run job batches until in
// reaches EOF (the coordinator closing our stdin is the normal
// shutdown). Every settled cell streams back as a record frame the
// moment its checkpoint settles, and the Runner's run-log entries are
// forwarded as event frames with this worker's id stamped — the
// coordinator folds both into its own artifacts as they arrive, so a
// worker killed mid-shard loses only its in-flight cells.
//
// logf receives progress lines for the worker's stderr; nil disables.
func Serve(ctx context.Context, in io.Reader, out io.Writer, logf func(format string, args ...any)) error {
	dec := json.NewDecoder(in)
	var init Message
	if err := dec.Decode(&init); err != nil {
		return fmt.Errorf("campaign: worker: read init: %w", err)
	}
	if init.Type != msgInit || init.Spec == nil {
		return fmt.Errorf("campaign: worker: expected %s frame, got %q", msgInit, init.Type)
	}
	spec := *init.Spec
	id := spec.Worker
	if id == "" {
		id = obs.DefaultWorker
	}
	enc := newSafeEncoder(out)

	o := obs.New().SetWorker(id)
	o.AttachLog(&eventForwarder{enc: enc, worker: id})
	opts := spec.Options()
	opts.Obs = o
	if logf != nil {
		opts.Log = logf
	}
	opts.OnRecord = func(key string, record []byte) {
		// send ignores errors: a vanished coordinator surfaces as EOF
		// on the next read, and records are already on disk anyway.
		_ = enc.send(Message{Type: msgRecord, Worker: id, Key: key, Record: record})
	}
	r := cgp.NewRunner(opts)

	if err := enc.send(Message{Type: msgHello, Worker: id}); err != nil {
		return fmt.Errorf("campaign: worker %s: hello: %w", id, err)
	}
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(heartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = enc.send(Message{Type: msgHeartbeat, Worker: id})
			case <-hbStop:
				return
			}
		}
	}()

	for {
		var m Message
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("campaign: worker %s: read: %w", id, err)
		}
		if m.Type != msgJobs {
			continue // forward compatibility
		}
		done, failed := runJobs(ctx, r, m.Jobs)
		_ = enc.send(Message{Type: msgBatchDone, Worker: id, Done: done, Failed: failed})
		if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// runJobs executes one batch through RunAll, so the shard gets the
// Runner's full parallelism and singleflight coalescing. Failures are
// deterministic facts about the cell, reported per job.
func runJobs(ctx context.Context, r *cgp.Runner, specs []JobSpec) (done []int, failed []JobFailure) {
	var resolved []JobSpec
	var jobs []cgp.Job
	for _, js := range specs {
		w, err := r.WorkloadByName(js.Workload)
		if err != nil {
			failed = append(failed, JobFailure{ID: js.ID, Error: err.Error()})
			continue
		}
		resolved = append(resolved, js)
		jobs = append(jobs, cgp.Job{Workload: w, Config: js.Config})
	}
	results, err := r.RunAll(ctx, jobs)
	jobErrs := map[int]string{}
	var camp *cgp.CampaignError
	if errors.As(err, &camp) {
		for _, je := range camp.Jobs {
			jobErrs[je.Index] = je.Error()
		}
	}
	for i, js := range resolved {
		if results[i] != nil {
			done = append(done, js.ID)
			continue
		}
		msg := jobErrs[i]
		if msg == "" {
			msg = fmt.Sprintf("job not run: %v", err)
		}
		failed = append(failed, JobFailure{ID: js.ID, Error: msg})
	}
	return done, failed
}

// eventForwarder adapts the worker's run log (JSONL lines) onto event
// frames. RunLog writes one complete line per Write call, so no
// buffering or splitting is needed; the line is copied because the
// encoder may retain it past the call.
type eventForwarder struct {
	enc    *safeEncoder
	worker string
}

func (f *eventForwarder) Write(p []byte) (int, error) {
	line := bytes.TrimRight(p, "\n")
	entry := json.RawMessage(append([]byte(nil), line...))
	_ = f.enc.send(Message{Type: msgEvent, Worker: f.worker, Entry: entry})
	return len(p), nil
}
