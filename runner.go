package cgp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"cgp/internal/core"
	"cgp/internal/cpu"
	"cgp/internal/isa"
	"cgp/internal/obs"
	"cgp/internal/prefetch"
	"cgp/internal/program"
	"cgp/internal/sample"
	"cgp/internal/trace"
	"cgp/internal/units"
	"cgp/internal/workload"
)

// Workload re-exports the workload type for the public API.
type Workload = workload.Workload

// DBOptions re-exports database workload sizing.
type DBOptions = workload.DBOptions

// The paper's four database workloads (§4.1).
var (
	WiscProf   = workload.WiscProf
	WiscLarge1 = workload.WiscLarge1
	WiscLarge2 = workload.WiscLarge2
	WiscTPCH   = workload.WiscTPCH
)

// CPU2000 builds the named synthetic SPEC stand-in (gzip, gcc, crafty,
// parser, gap, bzip2, twolf).
func CPU2000(name string, seed int64) (*Workload, error) {
	spec, err := workload.CPU2000ByName(name)
	if err != nil {
		return nil, err
	}
	return workload.NewCPU2000(spec, seed), nil
}

// LoadTrace loads a sealed trace file as a workload that runs through
// Run and RunAll like any other. A probe-level capture of live served
// traffic (written by cgpserve -capture, or server.LiveCapture.Seal)
// is the "captured" workload: it replays through per-session tracers
// seeded from seed (0 means 42) over whatever layout a config asks for.
// An address-level recording (cgptrace record) is the "recorded"
// workload: its stream is the file's own events, fixed when they were
// recorded, so it runs on the O5 layout only, full or sampled, and
// every pass replays the loaded recording itself. The name is the
// workload's identity in a runner's caches: one runner takes one file.
func LoadTrace(path string, seed int64) (*Workload, error) {
	return workload.FromFile(path, seed)
}

// Result is everything one simulation run measured.
type Result struct {
	Workload string
	Config   string

	// CPU carries the full simulator statistics.
	CPU *cpu.Stats
	// Trace carries the trace-level statistics (instructions, calls,
	// instructions-per-call, ...).
	Trace trace.Stats
	// CGPStats is set when the configuration used CGP.
	CGPStats *core.Stats
}

// Cycles is shorthand for CPU.Cycles — the measured cycle count. For a
// sampled run this covers only the detailed spans; the whole-run
// figure is the estimate in CPU.Sample.EstCycles.
func (r *Result) Cycles() int64 { return int64(r.CPU.Cycles) }

// ICacheMisses is shorthand for CPU.ICacheMisses.
func (r *Result) ICacheMisses() int64 { return r.CPU.ICacheMisses }

// RunnerOptions configures the experiment harness.
type RunnerOptions struct {
	// DB sizes the database workloads.
	DB DBOptions
	// Seed drives the CPU2000 generators.
	Seed int64
	// Log receives progress lines (defaults to a no-op). It may be
	// called from multiple goroutines concurrently.
	Log func(format string, args ...any)
	// Workers caps the number of simulations RunAll keeps in flight.
	// 0 means GOMAXPROCS; 1 forces sequential execution.
	Workers int
	// CheckpointDir, when set, persists each completed Result to disk
	// (atomic temp-file + rename) keyed by the config fingerprint and
	// campaign scope, and serves later runs from those files — a
	// re-run after a crash or cancellation skips finished jobs. See
	// checkpoint.go.
	CheckpointDir string
	// FailFast cancels the remainder of a RunAll campaign as soon as
	// one job fails. Completed results are still returned.
	FailFast bool
	// Obs, when set, receives the campaign's observability signals:
	// harness spans (record/replay/run/checkpoint/verify), job
	// lifecycle events, progress state and metrics in both domains.
	// A nil Obs (the default) disables all of it; the hooks are
	// nil-safe, so no path checks the field more than once.
	Obs *obs.Observability
	// Attribution enables per-function prefetch attribution on every
	// simulated CPU (Stats.Attribution, Stats.QueryAttr and the two
	// attribution tables). It is deliberately not part of Config —
	// enabling it must not change config fingerprints or run cache
	// keys — but it is part of the checkpoint scope, so attributed and
	// plain campaigns never serve each other's checkpoints.
	Attribution bool
	// Sampling, when enabled, is the sampled-simulation schedule the
	// figure generators apply to the figures in SampledFigures: those
	// figures' cells run as sampled simulations (estimated cycles ±CI)
	// instead of full detailed ones. Unlike Attribution this IS part of
	// each affected cell's Config — sampling changes the result — so
	// sampled and full campaigns never share cached results or
	// checkpoints. Jobs submitted directly through Run/RunAll are only
	// sampled if their own Config.Sampling says so.
	Sampling sample.Config
	// SampledFigures lists the figure IDs Sampling applies to. Nil
	// means DefaultSampledFigures — the cycle-comparison figures, whose
	// headline numbers are run-length estimates. Figures whose numbers
	// are prefetch-effectiveness counters (fig7, fig8, fig9) default to
	// full detail: their counters are whole-run measurements a sampled
	// run cannot provide. An explicit entry samples any figure, these
	// three included; its rows are then marked Estimated.
	SampledFigures []string
}

// samplingFor resolves the sampling schedule for one figure: the
// campaign schedule when the figure is in the sampled set, the zero
// (full detail) config otherwise.
func (o *RunnerOptions) samplingFor(f *figureSpec) sample.Config {
	in := f.sampled
	if o.SampledFigures != nil {
		in = slices.Contains(o.SampledFigures, f.id)
	}
	if !in {
		return sample.Config{}
	}
	return o.Sampling
}

// runnerHooks are fault-injection points used by the chaos tests (see
// robustness_test.go); the zero value is inert and production code
// never sets them.
type runnerHooks struct {
	// afterRecord runs on each freshly sealed recording — chaos tests
	// corrupt bytes here.
	afterRecord func(w *Workload, layout Layout, rec *trace.Recording)
	// wrapConsumer may wrap a cell's CPU consumer — chaos tests inject
	// panics and forced cancellations here.
	wrapConsumer func(w *Workload, cfg Config, c trace.Consumer) trace.Consumer
}

// profiles bundles the two feedback artifacts a profile run produces:
// edge weights (for the OM layout) and modal call sequences (for the
// software-CGP variant).
type profiles struct {
	edges *program.Profile
	seq   *trace.SequenceProfile
}

// Runner executes (workload, config) pairs, caching profiles, laid-out
// images, recorded traces and run results so the figure generators can
// share work.
//
// All methods are safe for concurrent use. Every cacheable unit of
// work is memoized singleflight-style: the first goroutine to request
// a key performs the work while later requesters block and share the
// result, so concurrent figure generators never record the same trace
// or collect the same profile twice. Transient failures (cancellation,
// recording corruption) evict their entry so a later call can retry;
// successes and deterministic failures stay cached.
type Runner struct {
	opts RunnerOptions
	// sem bounds the number of concurrently executing simulations
	// across every RunAll call sharing this runner.
	sem chan struct{}

	hooks runnerHooks

	mu      sync.Mutex
	flights map[string]*flight
	hubs    map[string]*replayHub
	// events holds the event count of each workload's stream, by
	// workload name, once a pass has walked one; a figure plan ranks
	// its streams by it (planOrder).
	events map[string]int64
}

// flight memoizes one unit of keyed work (a run, a trace recording, an
// image layout or a profile collection). Completed flights double as
// the result cache. Resolution is idempotent (first write wins), so
// the batch-level panic guard can sweep a failed batch without
// tracking which cells already resolved.
type flight struct {
	once sync.Once
	done chan struct{}
	val  any
	err  error
}

// Cache-key namespaces. The work graph is acyclic: runs depend on
// recordings, recordings on images, OM images on profiles, profiles on
// O5 recordings — so nested once() calls cannot deadlock.
const dbProfilesKey = "prof|db"

// cellKey is a cell's run key: the runner's flight key for the cell
// and the key its checkpoint record embeds.
func cellKey(workloadName string, cfg Config) string {
	return "run|" + workloadName + "|" + cfg.fingerprint()
}

func recKey(w *Workload, l Layout) string { return fmt.Sprintf("rec|%s|%d", w.Name, l) }
func imgKey(w *Workload, l Layout) string { return fmt.Sprintf("img|%s|%d", w.Name, l) }

func profKey(w *Workload) string {
	if w.Family == "db" {
		return dbProfilesKey
	}
	return "prof|" + w.Name
}

// NewRunner builds a harness.
func NewRunner(opts RunnerOptions) *Runner {
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		opts:    opts,
		sem:     make(chan struct{}, opts.Workers),
		flights: make(map[string]*flight),
		hubs:    make(map[string]*replayHub),
		events:  make(map[string]int64),
	}
}

// claim returns the flight for key and whether the caller became its
// owner. An owner must resolve the flight exactly once; everyone else
// waits on it.
func (r *Runner) claim(key string) (*flight, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.flights[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	return f, true
}

// evict drops key's entry if it still holds f, so a later claim can
// retry the work. Used for transient failures only: cached successes
// are determinism-relevant and must never be recomputed.
func (r *Runner) evict(key string, f *flight) {
	r.mu.Lock()
	if r.flights[key] == f {
		delete(r.flights, key)
	}
	r.mu.Unlock()
}

func (f *flight) resolve(val any, err error) {
	f.once.Do(func() {
		f.val, f.err = val, err
		close(f.done)
	})
}

// wait blocks until the flight resolves or ctx is done. Abandoning a
// wait does not cancel the computation — the owner may be serving
// other campaigns.
func (f *flight) wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// once returns the memoized result of the work keyed by key, computing
// it via fn on first use. Concurrent requests for the same key share
// one computation (and its error, if any). A panicking fn resolves the
// flight with a *JobError instead of deadlocking its waiters; a
// transient failure evicts the entry so a later call retries.
func (r *Runner) once(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	f, owner := r.claim(key)
	if owner {
		f.resolve(guarded(ctx, fn))
		if isTransient(f.err) {
			r.evict(key, f)
		}
	}
	return f.wait(ctx)
}

// obsSpan starts a harness span (nil-safe; a nil Obs yields a nil
// span whose End is a no-op).
func (r *Runner) obsSpan(name, cat string) *obs.Span {
	return r.opts.Obs.Span(name, cat)
}

// obsJob emits one job lifecycle event to the run log and progress
// tracker (nil-safe). The job is the cell's run key (cellKey): the
// workload name and config label only display it, and distinct cells
// can share a label.
func (r *Runner) obsJob(state obs.JobState, workload string, cfg Config, detail string) {
	if r.opts.Obs == nil {
		return
	}
	r.opts.Obs.Job(state, cellKey(workload, cfg), workload, cfg.Label(), detail)
}

// obsWall returns the wall-clock registry, nil when disabled.
func (r *Runner) obsWall() *obs.WallRegistry {
	if r.opts.Obs == nil {
		return nil
	}
	return r.opts.Obs.Wall
}

// noteResult folds one completed cell's simulated totals into the
// deterministic-domain registry. The values come only from the Result,
// so they are identical whether the cell was freshly simulated,
// replayed, or resumed from a checkpoint — a campaign's deterministic
// metrics depend on which cells it needed, never on how they were
// satisfied.
func (r *Runner) noteResult(res *Result) {
	if r.opts.Obs == nil {
		return
	}
	det := r.opts.Obs.Det
	if det == nil {
		return
	}
	det.Counter("sim_jobs").Add(1)
	det.Counter("sim_cycles").Add(int64(res.CPU.Cycles))
	det.Counter("sim_instructions").Add(int64(res.CPU.Instructions))
	det.Counter("sim_icache_misses").Add(res.CPU.ICacheMisses)
	// Event accounting by simulation tier: a full-detail cell's whole
	// stream is detailed; a sampled cell splits it across the three
	// tiers. All of it is Result-derived, so the counters stay identical
	// across fresh, replayed and checkpoint-resumed cells.
	if sm := res.CPU.Sample; sm != nil {
		det.Counter("sim_jobs_sampled").Add(1)
		det.Counter("sim_events_skipped").Add(sm.SkippedEvents)
		det.Counter("sim_events_fastforwarded").Add(sm.FastForwardedEvents)
		det.Counter("sim_events_detailed").Add(sm.DetailedEvents())
		det.Counter("sim_sample_windows").Add(int64(sm.Windows))
	} else {
		det.Counter("sim_events_detailed").Add(res.Trace.Events)
	}
	tp := res.CPU.TotalPrefetch()
	det.Counter("sim_prefetch_issued").Add(tp.Issued)
	det.Counter("sim_prefetch_useful").Add(tp.Useful())
	for _, p := range prefetch.Portions() {
		ps := res.CPU.PortionStats(p)
		det.Counter("sim_prefetch_issued_" + p.String()).Add(ps.Issued)
		det.Counter("sim_prefetch_useful_" + p.String()).Add(ps.Useful())
	}
}

// DBWorkloads returns the paper's four database workloads at the
// runner's scale.
func (r *Runner) DBWorkloads() []*Workload {
	return workload.DBWorkloads(r.opts.DB)
}

// CPU2000Workloads returns the seven Figure-10 programs.
func (r *Runner) CPU2000Workloads() []*Workload {
	return workload.CPU2000Workloads(r.opts.Seed)
}

// profilesFor returns (collecting on first use) the feedback artifacts
// a profile run produces. Database workloads share one profile, merged
// from wisc-prof and wisc+tpch runs exactly as §5.1 describes; each
// CPU2000 program profiles itself (the paper uses the SPEC "test"
// input).
func (r *Runner) profilesFor(ctx context.Context, w *Workload) (*profiles, error) {
	v, err := r.once(ctx, profKey(w), func(ctx context.Context) (any, error) {
		if w.Family == "db" {
			r.opts.Log("collecting DB profile (wisc-prof + wisc+tpch)")
			merged := &profiles{edges: program.NewProfile(), seq: trace.NewSequenceProfile(0)}
			for _, pw := range []*Workload{workload.WiscProf(r.opts.DB), workload.WiscTPCH(r.opts.DB)} {
				p, err := r.collectProfiles(ctx, pw)
				if err != nil {
					return nil, fmt.Errorf("profile run %s: %w", pw.Name, err)
				}
				merged.edges.Merge(p.edges)
				mergeSequences(merged.seq, p.seq)
			}
			return merged, nil
		}
		r.opts.Log("collecting profile for %s", w.Name)
		return r.collectProfiles(ctx, w)
	})
	if err != nil {
		return nil, err
	}
	return v.(*profiles), nil
}

// profileFor returns just the edge-weight profile (OM layout input).
func (r *Runner) profileFor(ctx context.Context, w *Workload) (*program.Profile, error) {
	p, err := r.profilesFor(ctx, w)
	if err != nil {
		return nil, err
	}
	return p.edges, nil
}

// collectProfiles gathers w's feedback artifacts from its O5 event
// stream, in a pass whose only consumer is the collectors. It is a
// full-detail pass, so its source follows pass's rule: a live execution,
// which in a sampling campaign records the stream for the sampled O5
// cells to replay, or the recording an earlier pass left.
func (r *Runner) collectProfiles(ctx context.Context, w *Workload) (*profiles, error) {
	var (
		pc   *trace.ProfileCollector
		sc   *trace.SequenceCollector
		cols []*passCell
	)
	_, err := r.pass(ctx, w, LayoutO5, sample.Config{}, func() []*passCell {
		pc, sc = trace.NewProfileCollector(), trace.NewSequenceCollector(0)
		cols = []*passCell{{c: pc}, {c: sc}}
		return cols
	})
	for _, col := range cols {
		if err == nil && col.err != nil {
			err = col.err
		}
	}
	if err != nil {
		return nil, err
	}
	return &profiles{edges: pc.Profile, seq: sc.Profile}, nil
}

// mergeSequences folds src's recorded call positions into dst.
func mergeSequences(dst, src *trace.SequenceProfile) {
	for _, fn := range src.Functions() {
		for slot, callee := range src.Sequence(fn) {
			dst.Record(fn, slot, callee)
		}
	}
}

// imageFor lays out w's registry once per layout. Registries are
// deterministic and images are immutable after layout, so every
// consumer of a (workload, layout) pair shares one image.
func (r *Runner) imageFor(ctx context.Context, w *Workload, layout Layout) (*program.Image, error) {
	v, err := r.once(ctx, imgKey(w, layout), func(ctx context.Context) (any, error) {
		reg := w.NewRegistry()
		switch layout {
		case LayoutO5:
			return program.LayoutO5(reg), nil
		case LayoutOM:
			prof, err := r.profileFor(ctx, w)
			if err != nil {
				return nil, err
			}
			return program.LayoutOM(reg, prof), nil
		default:
			return nil, fmt.Errorf("cgp: unknown layout %d", layout)
		}
	})
	if err != nil {
		return nil, err
	}
	return v.(*program.Image), nil
}

// recordingFor returns w's event stream on layout as a sealed
// recording, recording it on first use. The stream for a (workload,
// layout) pair is deterministic and independent of the CPU
// configuration, so every later pass replays the same buffer instead of
// re-executing the workload. The call that records the stream walks the
// workload live (walk) and feeds cells, which may be none, from that
// same walk; fed reports that it did. Every other call waits for the
// recording and feeds no one. The recording lives for the life of the
// Runner (unless evicted after corruption); its encoded size is
// reported through Log. A workload that is a sealed recording already
// is its own recording, on the O5 layout it was recorded over.
func (r *Runner) recordingFor(ctx context.Context, w *Workload, layout Layout, cells []*passCell) (rec *trace.Recording, fed bool, err error) {
	v, err := r.once(ctx, recKey(w, layout), func(ctx context.Context) (any, error) {
		if w.Recording != nil {
			if layout != LayoutO5 {
				return nil, fmt.Errorf("cgp: workload %s replays a recording with fixed addresses; it runs on the O5 layout only", w.Name)
			}
			return w.Recording, nil
		}
		img, err := r.imageFor(ctx, w, layout)
		if err != nil {
			return nil, err
		}
		fed = len(cells) > 0
		rec := trace.NewRecorder()
		r.opts.Log("record %-12s %s", w.Name, layout)
		sp := r.obsSpan("record", "record").
			Arg("workload", w.Name).Arg("layout", layout.String()).
			Arg("cells", fmt.Sprint(len(cells)))
		_, err = walk(ctx, w, img, cells, rec)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("cgp: record %s under %s: %w", w.Name, layout, err)
		}
		rg, err := rec.Finish()
		sp.End()
		if err != nil {
			return nil, err
		}
		if r.hooks.afterRecord != nil {
			r.hooks.afterRecord(w, layout, rg)
		}
		r.opts.Log("recorded %s/%s: %d events, %.1f MiB",
			w.Name, layout, rg.Events(), float64(rg.Bytes())/(1<<20))
		return rg, nil
	})
	if err != nil {
		return nil, fed, err
	}
	return v.(*trace.Recording), fed, nil
}

// evictRecordingIf drops the cached recording for (w, layout) if it
// still is rec — the one observed corrupt. The identity check keeps a
// concurrent rebuild's fresh recording from being evicted by a racer
// still failing on the old one.
func (r *Runner) evictRecordingIf(w *Workload, layout Layout, rec *trace.Recording) {
	key := recKey(w, layout)
	r.mu.Lock()
	if f, ok := r.flights[key]; ok && f.val == any(rec) {
		delete(r.flights, key)
	}
	r.mu.Unlock()
}

// A corrupted recording is rebuilt from source at most retryBudget
// times before the affected jobs fail. The first rebuild waits
// retryBackoff, and each later one waits twice as long as the last.
const (
	retryBudget  = 2
	retryBackoff = 5 * time.Millisecond
)

// replayRetry runs attempt, which replays the (w, layout) recording it
// obtains from recordingFor, or records it, and returns it alongside
// any error. On a *CorruptionError the recording is evicted and rebuilt
// from source — the workload re-executes — under an exponential
// backoff, up to retryBudget rebuilds. Other errors (including
// cancellation) return immediately.
func (r *Runner) replayRetry(ctx context.Context, w *Workload, layout Layout, attempt func(context.Context) (*trace.Recording, error)) error {
	for try := 0; ; try++ {
		rec, err := attempt(ctx)
		var ce *trace.CorruptionError
		if err == nil || !errors.As(err, &ce) || ctx.Err() != nil {
			return err
		}
		if try >= retryBudget {
			return fmt.Errorf("cgp: %s/%s: retry budget exhausted after %d rebuilds: %w",
				w.Name, layout, try, err)
		}
		r.opts.Log("corrupt recording %s/%s: %v; rebuilding from source (retry %d/%d)",
			w.Name, layout, err, try+1, retryBudget)
		r.obsWall().Incr("trace_rebuilds", 1)
		if rec != nil {
			r.evictRecordingIf(w, layout, rec)
		}
		sp := r.obsSpan("backoff", "retry").
			Arg("workload", w.Name).Arg("try", fmt.Sprint(try+1))
		sleepCtx(ctx, retryBackoff<<try)
		sp.End()
	}
}

// Run simulates one workload under one configuration. It is RunAll of
// the one job, so a lone cell takes the same hub, pass and checkpoint
// path as a campaign's. Results are cached by (workload, config
// fingerprint); concurrent calls for the same pair share one
// simulation. The context cancels the work: a canceled run fails with
// a *JobError wrapping ctx's error and is not cached.
func (r *Runner) Run(ctx context.Context, w *Workload, cfg Config) (*Result, error) {
	res, err := r.RunAll(ctx, []Job{{w, cfg}})
	if err != nil {
		return nil, err.(*CampaignError).Jobs[0]
	}
	return res[0], nil
}

// prepare builds the prefetcher and CPU for one cell, as a pass
// consumer: the CPU behind the fault-injection hook, when set, and
// ready for its sampling plan when the cell is sampled. A config the
// machine's constructors refuse (a CGHC geometry core.New panics on,
// say) fails as the cell's own *JobError, so its pass mates still run.
func (r *Runner) prepare(ctx context.Context, w *Workload, c hubCell) (b *passCell, err error) {
	cfg := c.cfg
	defer func() {
		if p := recover(); p != nil {
			b, err = nil, &JobError{Workload: w.Name, Config: cfg.Label(), Index: -1, Panic: p, Stack: debug.Stack()}
		}
	}()
	var sw *core.Software
	if cfg.Prefetcher == PrefSoftwareCGP && !cfg.PerfectICache {
		// The software variant needs the profiled call sequences bound
		// to this image's addresses, through the workload's registry.
		if w.Recording != nil {
			return nil, fmt.Errorf("cgp: software CGP needs a function registry; workload %s replays a recording, which has none", w.Name)
		}
		prof, err := r.profilesFor(ctx, w)
		if err != nil {
			return nil, err
		}
		img, err := r.imageFor(ctx, w, cfg.Layout)
		if err != nil {
			return nil, err
		}
		sw = buildSoftwareCGP(cfg, prof.seq, img)
	}
	b = &passCell{cell: c}
	b.cpu, b.gp = cfg.newCPU(sw)
	if r.opts.Attribution {
		b.cpu.EnableAttribution()
	}
	b.c = b.cpu
	if r.hooks.wrapConsumer != nil {
		b.c = r.hooks.wrapConsumer(w, cfg, b.c)
	}
	return b, nil
}

// result seals a finished cell's statistics into its Result.
func (b *passCell) result(w *Workload, st trace.Stats) *Result {
	res := &Result{Workload: w.Name, Config: b.cell.cfg.Label(), CPU: b.cpu.Finish(), Trace: st}
	if b.gp != nil {
		s := b.gp.Stats()
		res.CGPStats = &s
	}
	return res
}

// Job names one (workload, config) simulation for RunAll.
type Job struct {
	Workload *Workload
	Config   Config
}

// RunAll executes jobs with up to Workers batches in flight and
// returns results in input order regardless of completion order. Its
// (workload, layout) streams take worker slots in the order their jobs
// first appear, so a caller that lists its costliest stream first
// starts that pass first.
// Duplicate jobs — and cells shared with earlier figures — are
// deduplicated through the result cache, so overlapping grids never
// repeat a simulation.
//
// RunAll degrades gracefully rather than all-or-nothing: a failed or
// canceled job leaves a nil slot in the returned slice, and the error
// is a *CampaignError carrying one input-ordered *JobError per failed
// job (panic, cancellation, corruption past the retry budget, ...).
// Every other slot still holds its completed Result. A panicking
// simulation fails only its own job. With FailFast set, the first
// failure cancels the jobs that have not finished yet.
//
// Jobs sharing a (workload, layout) event stream are batched through
// that stream's replay hub: each drain feeds its cells from one pass
// over the stream per sampling schedule, so the decode or the live
// execution is paid once per pass instead of once per config. Batching only changes scheduling — every consumer still
// sees its plan's stream in order, so results are identical to running
// each job alone.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) ([]*Result, error) {
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	for _, j := range jobs {
		r.obsJob(obs.JobQueued, j.Workload.Name, j.Config, "")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// fail trips the campaign breaker on the first failure in FailFast
	// mode; jobs already running stop at their next cancellation poll.
	fail := func(err error) {
		if err != nil && r.opts.FailFast {
			cancel()
		}
	}
	var wg sync.WaitGroup
	// Each group asks for its first worker slot once the group before
	// it got one or gave up: turn closes when that has happened.
	turn := make(chan struct{})
	close(turn)
	for _, g := range groupJobs(jobs) {
		next := make(chan struct{})
		wg.Add(1)
		// runGroup acquires a worker slot itself, only around the drain
		// phase: claiming and waiting hold no slot.
		go func(turn <-chan struct{}, next chan<- struct{}) {
			defer wg.Done()
			r.runGroup(ctx, g, turn, next, results, errs, fail)
		}(turn, next)
		turn = next
	}
	wg.Wait()
	var failed []*JobError
	for i, err := range errs {
		if err != nil {
			results[i] = nil
			r.obsJob(obs.JobFailed, jobs[i].Workload.Name, jobs[i].Config, err.Error())
			failed = append(failed, jobError(jobs[i], i, err))
		}
	}
	if len(failed) == 0 {
		return results, nil
	}
	return results, &CampaignError{Jobs: failed}
}

// jobGroup collects the jobs of one RunAll call that share a
// (workload, layout) event stream.
type jobGroup struct {
	w      *Workload
	hubKey string
	keys   []string          // unique run cache keys, input order
	cfgs   map[string]Config // run key -> config (defaults applied)
	idx    map[string][]int  // run key -> job indices
}

func groupJobs(jobs []Job) []*jobGroup {
	order := []*jobGroup{}
	groups := map[string]*jobGroup{}
	for i, j := range jobs {
		cfg := j.Config.withDefaults()
		gk := recKey(j.Workload, cfg.Layout)
		g := groups[gk]
		if g == nil {
			g = &jobGroup{w: j.Workload, hubKey: gk, cfgs: map[string]Config{}, idx: map[string][]int{}}
			groups[gk] = g
			order = append(order, g)
		}
		rk := cellKey(j.Workload.Name, cfg)
		if _, ok := g.cfgs[rk]; !ok {
			g.keys = append(g.keys, rk)
			g.cfgs[rk] = cfg
		}
		g.idx[rk] = append(g.idx[rk], i)
	}
	return order
}

// replayHub coalesces claimed cells that consume one (workload,
// layout) event stream; it is the only place a cell is simulated.
// Group tasks enqueue their cells before taking a worker slot, so
// whichever task drains first serves every pending cell of the stream
// in one wide pass per sampling schedule — concurrent figure
// generators' grids merge into a few passes instead of one per figure.
// Coalescing only affects scheduling: each cell's CPU always consumes
// its plan's stream, so results are identical however cells are
// batched.
type replayHub struct {
	mu      sync.Mutex
	active  bool
	pending []hubCell
}

// hubCell is one claimed, unsimulated cell: its config, its run cache
// key (for transient eviction) and the flight the drainer must
// resolve.
type hubCell struct {
	cfg Config
	key string
	f   *flight
}

func (r *Runner) hubFor(key string) *replayHub {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hubs[key]
	if h == nil {
		h = &replayHub{}
		r.hubs[key] = h
	}
	return h
}

// withdraw removes from the pending queue every cell whose flight is
// in set, invoking fail for each. Cells a drainer already grabbed are
// left to that drainer.
func (h *replayHub) withdraw(set []hubCell, fail func(hubCell)) {
	if len(set) == 0 {
		return
	}
	member := make(map[*flight]bool, len(set))
	for _, c := range set {
		member[c.f] = true
	}
	var taken []hubCell
	h.mu.Lock()
	kept := h.pending[:0]
	for _, c := range h.pending {
		if member[c.f] {
			taken = append(taken, c)
		} else {
			kept = append(kept, c)
		}
	}
	h.pending = kept
	h.mu.Unlock()
	for _, c := range taken {
		fail(c)
	}
}

// resolveCell resolves one hub cell, evicting its flight when the
// failure is transient so a later campaign can retry the key.
func (r *Runner) resolveCell(c hubCell, res *Result, err error) {
	if err != nil {
		c.f.resolve(nil, err)
		if isTransient(err) {
			r.evict(c.key, c.f)
		}
		return
	}
	c.f.resolve(res, nil)
}

// runGroup claims the group's uncomputed cells, enqueues them on the
// stream's hub, competes to drain it, then collects results (including
// cells another goroutine computed) into the RunAll output slots.
// Claiming and enqueueing happen before the worker slot is acquired —
// they do no simulation work — so even a single-worker pool sees every
// concurrent figure's cells before the first drain begins. The first
// slot is asked for once turn closes, and next closes once this group
// got it or gave up. A cell that another campaign's cancellation
// aborted (hubs are shared across concurrent RunAll calls) was evicted
// as transient, so it goes round again: claimed and enqueued under this
// campaign's live context.
func (r *Runner) runGroup(ctx context.Context, g *jobGroup, turn <-chan struct{}, next chan<- struct{}, results []*Result, errs []error, fail func(error)) {
	type cellRef struct {
		key   string
		f     *flight
		owner bool
	}
	h := r.hubFor(g.hubKey)
	for keys := g.keys; len(keys) > 0; {
		cells := make([]cellRef, 0, len(keys))
		var enq []hubCell
		for _, rk := range keys {
			f, owner := r.claim(rk)
			cells = append(cells, cellRef{rk, f, owner})
			if owner {
				enq = append(enq, hubCell{g.cfgs[rk], rk, f})
			}
		}
		if len(enq) > 0 {
			h.mu.Lock()
			h.pending = append(h.pending, enq...)
			h.mu.Unlock()
		}
		// The first round asks for a slot once turn closes; later rounds,
		// which run only while ctx lives, find it closed.
		acquired := false
		select {
		case <-turn:
			select {
			case r.sem <- struct{}{}:
				acquired = true
			case <-ctx.Done():
			}
		case <-ctx.Done():
		}
		if next != nil {
			close(next)
			next = nil
		}
		if acquired {
			r.pump(ctx, g.w, h)
			<-r.sem //cgplint:ignore ctxflow held worker token guarantees a free slot, the release cannot block
		} else {
			// Canceled before a worker slot freed up. Withdraw our still-
			// pending cells so their flights don't dangle unresolved;
			// cells an active drainer already took will be resolved by it.
			h.withdraw(enq, func(c hubCell) { r.resolveCell(c, nil, ctx.Err()) })
		}
		keys = nil
		for _, c := range cells {
			v, err := c.f.wait(ctx)
			if err != nil && isCancellation(err) && ctx.Err() == nil {
				keys = append(keys, c.key)
				continue
			}
			if err == nil && !c.owner {
				// The cell was claimed by another campaign or group task
				// and served to this one through the singleflight cache.
				r.obsJob(obs.JobReplayed, g.w.Name, g.cfgs[c.key], "coalesced")
			}
			for _, i := range g.idx[c.key] {
				if err != nil {
					errs[i] = err
				} else {
					results[i] = v.(*Result)
				}
			}
			fail(err)
		}
	}
}

// pump drains h: while cells are pending and no other drainer is
// active, grab them all and simulate them (runBatch). Cells enqueued
// during a drain are picked up by the next loop iteration; if another
// drainer is active it will do the same, so every enqueued cell is
// eventually simulated.
func (r *Runner) pump(ctx context.Context, w *Workload, h *replayHub) {
	for {
		h.mu.Lock()
		if h.active || len(h.pending) == 0 {
			h.mu.Unlock()
			return
		}
		batch := h.pending
		h.pending = nil
		h.active = true
		h.mu.Unlock()
		r.runBatchGuarded(ctx, w, batch)
		h.mu.Lock()
		h.active = false
		h.mu.Unlock()
	}
}

// runBatchGuarded is runBatch behind a panic guard: a panic escaping
// the batch machinery itself (not a consumer — those are recovered
// per-cell) fails the whole batch as JobErrors instead of killing the
// drainer goroutine and deadlocking every waiter. Resolution is
// idempotent, so cells runBatch already resolved keep their results.
func (r *Runner) runBatchGuarded(ctx context.Context, w *Workload, batch []hubCell) {
	defer func() {
		if p := recover(); p != nil {
			je := &JobError{Workload: w.Name, Index: -1, Panic: p, Stack: debug.Stack()}
			for _, c := range batch {
				r.resolveCell(c, nil, je)
			}
		}
	}()
	r.runBatch(ctx, w, batch)
}

// runBatch simulates a drained set of one (workload, layout)'s cells,
// resolving each cell's flight with its Result or failure. Cells with a
// valid checkpoint are served from disk; the rest run in one pass per
// sampling schedule, so every full-detail cell shares one pass and so
// do the cells of each sampled schedule. The full-detail pass goes
// first: when it records the stream its cells ride the record walk,
// and the sampled passes replay the recording it leaves.
func (r *Runner) runBatch(ctx context.Context, w *Workload, batch []hubCell) {
	var order []sample.Config
	passes := map[sample.Config][]hubCell{}
	for _, c := range batch {
		if res, ok := r.loadCheckpoint(w, c.cfg); ok {
			r.opts.Log("checkpoint %-12s %-14s", w.Name, c.cfg.Label())
			r.obsWall().Incr("checkpoint_hits", 1)
			r.obsJob(obs.JobResumed, w.Name, c.cfg, "checkpoint")
			r.noteResult(res)
			c.f.resolve(res, nil)
			continue
		}
		smp := c.cfg.Sampling
		if _, ok := passes[smp]; !ok {
			if smp.Enabled() {
				order = append(order, smp)
			} else {
				order = slices.Insert(order, 0, smp)
			}
		}
		passes[smp] = append(passes[smp], c)
	}
	for _, smp := range order {
		r.runPass(ctx, w, smp, passes[smp])
	}
}

// runPass simulates cells — one (workload, layout), one sampling
// schedule — in a single pass over their event stream. A cell whose
// simulation cannot be built fails alone, as does a cell whose
// consumer panics; a stream-level failure (recording error,
// cancellation, exhausted retry budget) fails every cell still
// unresolved.
func (r *Runner) runPass(ctx context.Context, w *Workload, smp sample.Config, todo []hubCell) {
	var cells []*passCell
	st, err := r.pass(ctx, w, todo[0].cfg.Layout, smp, func() []*passCell {
		cells = cells[:0]
		left := todo[:0]
		for _, c := range todo {
			b, err := r.prepare(ctx, w, c)
			if err != nil {
				// Deterministic per-cell failure: resolve now and drop
				// the cell from any later retry round.
				r.resolveCell(c, nil, err)
				continue
			}
			r.opts.Log("run %-12s %-14s", w.Name, c.cfg.Label())
			r.obsJob(obs.JobStarted, w.Name, c.cfg, "")
			cells = append(cells, b)
			left = append(left, c)
		}
		todo = left
		return cells
	})
	if err != nil {
		for _, c := range todo {
			r.resolveCell(c, nil, err)
		}
		return
	}
	for _, b := range cells {
		if b.err != nil {
			b.err.Workload, b.err.Config = w.Name, b.cell.cfg.Label()
			r.resolveCell(b.cell, nil, b.err)
			continue
		}
		res := b.result(w, st)
		r.storeCheckpoint(w, b.cell.cfg, res)
		r.obsJob(obs.JobExecuted, w.Name, b.cell.cfg, "")
		r.noteResult(res)
		r.resolveCell(b.cell, res, nil)
	}
}

// pass walks w's event stream on layout once, feeding every consumer
// build returns, and returns the stream's stats. It is the one place a
// pass's source is chosen, by one rule: a pass replays the sealed
// recording when it is sampled (skipping needs the recording's index),
// when the workload is a recording already, or when the runner samples
// and the stream is recorded. Otherwise it executes the workload live,
// and in a runner that samples that walk records the stream as it
// feeds the pass, so later passes replay it. A sampled pass over an
// unrecorded stream first records it with a walk that feeds no one. A
// recording is walked per smp's plan, the whole stream for full
// detail, and rebuilt from source under the retry budget if corrupt.
// build runs once the source is ready, again after a rebuild, so a
// retry feeds fresh consumers; a pass with no consumers ends there. A
// full-detail pass builds before it asks for the recording, so that
// its consumers can ride the record walk: building inside the
// recording's flight could wait on that same flight, since a
// software-CGP cell's profile run walks its workload's O5 stream. The
// error is stream-level: a consumer's panic lands in its own cell's
// err.
func (r *Runner) pass(ctx context.Context, w *Workload, layout Layout, smp sample.Config, build func() []*passCell) (trace.Stats, error) {
	var st trace.Stats
	span := func(cells []*passCell, source string) *obs.Span {
		return r.obsSpan("replay", "replay").
			Arg("workload", w.Name).Arg("layout", layout.String()).
			Arg("sampling", smp.String()).Arg("source", source).
			Arg("cells", fmt.Sprint(len(cells)))
	}
	var err error
	if !smp.Enabled() && !r.opts.Sampling.Enabled() && w.Recording == nil {
		img, ierr := r.imageFor(ctx, w, layout)
		if ierr != nil {
			return st, ierr
		}
		if cells := build(); len(cells) > 0 {
			sp := span(cells, "live")
			st, err = walk(ctx, w, img, cells, nil)
			sp.End()
		}
	} else {
		err = r.replayRetry(ctx, w, layout, func(ctx context.Context) (*trace.Recording, error) {
			var cells []*passCell
			if !smp.Enabled() {
				if cells = build(); len(cells) == 0 {
					return nil, nil
				}
			}
			rec, fed, err := r.recordingFor(ctx, w, layout, cells)
			if err != nil || fed {
				if err == nil {
					st = rec.Stats
				}
				return rec, err
			}
			// Check integrity before building a sampled pass's consumers:
			// a corrupt recording retries with no per-cell state to unwind.
			vsp := r.obsSpan("verify", "verify").Arg("workload", w.Name)
			err = rec.Verify()
			vsp.End()
			if err != nil {
				return rec, err
			}
			if cells == nil {
				if cells = build(); len(cells) == 0 {
					return rec, nil
				}
			}
			sp := span(cells, "recording")
			begin, batch, skip := fanout(ctx, cells)
			err = rec.ReplaySampled(smp.Plan(rec.Events()), begin, batch, skip)
			sp.End()
			st = rec.Stats
			return rec, err
		})
	}
	if errors.Is(err, errNoLiveCells) {
		err = nil // each cell reports its own panic
	}
	if err == nil && st.Events > 0 {
		r.mu.Lock()
		r.events[w.Name] = st.Events
		r.mu.Unlock()
	}
	return st, err
}

// walk executes w on img once, the runner's one live walk of a stream,
// and hands each batch to rec, when recording, and to cells. A walk
// that records takes the stream's stats from the recorder, so it
// returns none itself, and runs to the end of the stream even once
// every cell has failed: the recording serves later passes. Any other
// walk counts the stream's stats and stops when no cell is left.
func walk(ctx context.Context, w *Workload, img *program.Image, cells []*passCell, rec *trace.Recorder) (trace.Stats, error) {
	var st trace.Stats
	_, batch, _ := fanout(ctx, cells)
	feeding := len(cells) > 0
	err := runWorkload(ctx, w, img, func(evs []trace.Event) error {
		if rec != nil {
			rec.EventBatch(evs)
		} else {
			st.EventBatch(evs)
		}
		if !feeding {
			return nil
		}
		err := batch(evs)
		if rec != nil && errors.Is(err, errNoLiveCells) {
			feeding, err = false, nil
		}
		return err
	})
	return st, err
}

// passCell is one consumer of a pass: a cell's configured CPU, or one
// of a profile run's collectors (cpu nil).
type passCell struct {
	cell hubCell
	cpu  *cpu.CPU
	gp   *core.CGP
	c    trace.Consumer // the CPU, possibly hook-wrapped
	// shared marks a CPU fed from a front end it shares with its pass
	// mates: it runs the front end's ops instead of consuming events.
	shared bool
	err    *JobError // set once the consumer panicked; no more events
}

// errNoLiveCells aborts a pass whose consumers have all panicked:
// walking the rest of the stream would feed no one.
var errNoLiveCells = errors.New("cgp: every consumer of the pass failed")

// fanout returns a pass's source callbacks over cells, the one place
// cell consumers are fed. The CPUs whose configs share a
// cpu.Config.FrontendKey share one cpu.Frontend, which decodes each
// batch once for all of them; the cells of a pass sample alike. A CPU
// behind a fault-injection hook, and a profile collector, consumes the
// batch itself. Span starts and skipped spans go to each cell's CPU and
// then to the shared front ends. Batches and skips poll ctx, so
// cancellation takes effect within one batch even across long skips.
func fanout(ctx context.Context, cells []*passCell) (
	begin func(trace.SpanKind) error,
	batch func([]trace.Event) error,
	skip func(int64, units.Instrs) error) {
	var fronts []*cpu.Frontend
	byKey := map[cpu.Config]*cpu.Frontend{}
	for _, b := range cells {
		if b.cpu == nil || b.c != trace.Consumer(b.cpu) {
			continue
		}
		k := b.cpu.Config().FrontendKey()
		fe := byKey[k]
		if fe == nil {
			fe = cpu.NewFrontend(k)
			if b.cpu.SamplingEnabled() {
				fe.EnableSampling()
			}
			byKey[k] = fe
			fronts = append(fronts, fe)
		}
		b.cpu.UseFrontend(fe)
		b.shared = true
	}
	begin = func(kind trace.SpanKind) error {
		err := feed(cells, func(b *passCell) {
			if b.cpu != nil {
				b.cpu.BeginSpan(kind)
			}
		})
		for _, fe := range fronts {
			fe.BeginSpan(kind)
		}
		return err
	}
	batch = func(evs []trace.Event) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, fe := range fronts {
			fe.Decode(evs)
		}
		return feed(cells, func(b *passCell) {
			if b.shared {
				b.cpu.RunOps()
			} else {
				b.c.EventBatch(evs)
			}
		})
	}
	skip = func(events int64, instrs units.Instrs) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := feed(cells, func(b *passCell) {
			if b.cpu != nil {
				b.cpu.SkipSpan(events, instrs)
			}
		})
		for _, fe := range fronts {
			fe.SkipSpan(instrs)
		}
		return err
	}
	return begin, batch, skip
}

// feed applies fn to every live cell, converting a panic into that
// cell's JobError: only the panicking cell stops consuming, its pass
// mates keep the stream. Once no cell is left it aborts the pass.
func feed(cells []*passCell, fn func(*passCell)) error {
	live := 0
	for _, b := range cells {
		if b.err == nil {
			b.call(fn)
		}
		if b.err == nil {
			live++
		}
	}
	if live == 0 {
		return errNoLiveCells
	}
	return nil
}

// call runs fn on b, recording a panic as b's JobError.
func (b *passCell) call(fn func(*passCell)) {
	defer func() {
		if p := recover(); p != nil {
			b.err = &JobError{Index: -1, Panic: p, Stack: debug.Stack()}
		}
	}()
	fn(b)
}

// buildSoftwareCGP binds a profiled sequence table to an image's
// addresses and returns the §6 software prefetcher.
func buildSoftwareCGP(cfg Config, seq *trace.SequenceProfile, img *program.Image) *core.Software {
	table := make(map[isa.Addr][]isa.Addr, seq.Len())
	for _, fn := range seq.Functions() {
		callees := seq.Sequence(fn)
		addrs := make([]isa.Addr, len(callees))
		for i, c := range callees {
			addrs[i] = img.Start(c)
		}
		table[img.Start(fn)] = addrs
	}
	return core.NewSoftware(cfg.Degree, table)
}
