package cgp

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"cgp/internal/program"
	"cgp/internal/trace"
)

// Failure model of the harness (DESIGN.md §11).
//
// A campaign (one RunAll call, or the whole cmd/experiments run) is a
// set of jobs that must degrade gracefully: one panicking simulation,
// one corrupted recording byte or one Ctrl-C fails only what it must,
// and everything already computed is kept. Three mechanisms implement
// that:
//
//   - every failure is attributed to a job as a *JobError and
//     aggregated per campaign as a *CampaignError, so callers can tell
//     exactly which cells are missing and why;
//   - panics inside a simulation are recovered at the singleflight
//     boundary (and per-consumer inside a shared replay pass), so a
//     bug in one configuration cannot take down its batch mates;
//   - transient failures — cancellation and recording corruption —
//     evict their singleflight entry, so a later call retries instead
//     of being served a cached error forever. Successes stay cached:
//     they are determinism-relevant and must never be recomputed
//     differently.

// JobError attributes one failed (workload, config) job. Exactly one
// of Panic (with Stack) or Err is set: Panic holds a value recovered
// from a panicking simulation, Err wraps an ordinary failure
// (cancellation, corruption after the retry budget, a workload error).
type JobError struct {
	// Workload and Config name the failed cell (display label).
	Workload string
	Config   string
	// Index is the job's position in its RunAll input slice, or -1
	// when the failure happened outside a campaign.
	Index int
	// Panic is the recovered panic value, nil for ordinary errors.
	Panic any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
	// Err is the underlying error for non-panic failures.
	Err error
}

// Error implements error.
func (e *JobError) Error() string {
	cell := "job"
	if e.Workload != "" {
		cell = fmt.Sprintf("job %s/%s", e.Workload, e.Config)
	}
	if e.Panic != nil {
		return fmt.Sprintf("%s: panic: %v", cell, e.Panic)
	}
	return fmt.Sprintf("%s: %v", cell, e.Err)
}

// Unwrap exposes the underlying cause (nil for panics).
func (e *JobError) Unwrap() error { return e.Err }

// CampaignError aggregates the failed jobs of one RunAll call in input
// order. The campaign's successful results are still returned alongside
// it — a CampaignError means "partially degraded", not "lost".
type CampaignError struct {
	// Jobs holds one entry per failed job, input-ordered.
	Jobs []*JobError
}

// Error implements error.
func (e *CampaignError) Error() string {
	if len(e.Jobs) == 1 {
		return e.Jobs[0].Error()
	}
	return fmt.Sprintf("%d jobs failed (first: %s)", len(e.Jobs), e.Jobs[0])
}

// Unwrap exposes the per-job errors to errors.Is/As.
func (e *CampaignError) Unwrap() []error {
	errs := make([]error, len(e.Jobs))
	for i, je := range e.Jobs {
		errs[i] = je
	}
	return errs
}

// jobError attributes err to one job. An unattributed *JobError (from
// a singleflight panic guard, which does not know the job it ran for)
// is copied and filled in; an already-attributed one is re-indexed for
// this campaign; anything else is wrapped.
func jobError(j Job, idx int, err error) *JobError {
	var je *JobError
	if errors.As(err, &je) {
		cp := *je
		if cp.Workload == "" {
			cp.Workload = j.Workload.Name
			cp.Config = j.Config.withDefaults().Label()
		}
		cp.Index = idx
		return &cp
	}
	return &JobError{
		Workload: j.Workload.Name,
		Config:   j.Config.withDefaults().Label(),
		Index:    idx,
		Err:      err,
	}
}

// isCancellation reports whether err is a context cancellation or
// deadline expiry.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// isTransient classifies failures that must not be cached by the
// singleflight layer: a canceled campaign or a corrupted recording says
// nothing about the next attempt, so the entry is evicted and a later
// call retries. Panics and workload errors are deterministic — they
// stay cached like successes.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if isCancellation(err) {
		return true
	}
	var ce *trace.CorruptionError
	return errors.As(err, &ce)
}

// guarded runs fn, converting a panic into an unattributed *JobError.
// Every singleflight owner runs through it, so a panicking computation
// still resolves its flight — waiters are never deadlocked, and the
// panic fails exactly the keys that depended on it.
func guarded(ctx context.Context, fn func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &JobError{Index: -1, Panic: p, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// sleepCtx waits d or until ctx is done, whichever comes first. It
// spaces recording-rebuild attempts; it never feeds simulated results,
// so the wall-clock wait is determinism-safe.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// abortRun carries a cancellation or a pass's abort out of a workload's
// event stream. Workload.Run has no context parameter, so the consumer
// panics with this sentinel and runWorkload recovers it into a plain
// error; any other panic value passes through to the singleflight guard.
type abortRun struct{ err error }

// runWorkload executes w against img, handing each batch of its stream
// to fn. It polls ctx once per batch, before fn sees it: once ctx is
// done the execution is aborted at the next batch and the context's
// error is returned, and an error from fn aborts it the same way.
func runWorkload(ctx context.Context, w *Workload, img *program.Image, fn func([]trace.Event) error) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if p := recover(); p != nil {
			a, ok := p.(abortRun)
			if !ok {
				panic(p)
			}
			err = a.err
		}
	}()
	return w.Run(img, trace.ConsumerFunc(func(evs []trace.Event) {
		err := ctx.Err()
		if err == nil {
			err = fn(evs)
		}
		if err != nil {
			panic(abortRun{err})
		}
	}))
}
