package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"cgp/internal/db"
	"cgp/internal/db/catalog"
	"cgp/internal/db/sql"
	"cgp/internal/obs"
	"cgp/internal/server"
	"cgp/internal/workload"
)

// serveSpec sizes a serving workload. Both serving workloads send the
// same traffic mix over the same database; they differ in the buffer
// pool's size and in whether live capture is attached.
type serveSpec struct {
	// wiscN is the Wisconsin big-relation cardinality.
	wiscN int
	// frames sizes the buffer pool.
	frames int
	// perKind is how many distinct statements of each kind the clients
	// draw from.
	perKind int
	// capture attaches live capture at its default sampling.
	capture bool
}

// clients is how many closed-loop clients a serving workload runs.
// Measured interleaved on a 2-vCPU host, two clients roughly doubled the
// run-to-run spread of p50 against one and widened that of qps: what the
// second client adds is the host scheduler's handoffs between them, not
// work of the server's.
const clients = 1

// setupReps is how many times a serving run sets up, for a median. A
// set-up of these databases takes ~50 ms, so one is too short to time
// on its own.
const setupReps = 9

// warmupQueries is how many queries a set-up ends with, split between
// the clients.
const warmupQueries = 200

// sliceLen is how long the clients run between two host speed probe
// rounds, which take about a tenth of that.
const sliceLen = time.Second

// spanKeep is how many window queries the traced run sends at most. The
// traced server retains every span of the run, so the layer breakdown
// covers each of these queries.
const spanKeep = 16384

// stmtKind is one kind of statement in the serving traffic.
type stmtKind struct {
	name string
	// stmt draws one statement of the kind over n big-relation rows.
	stmt func(rng *rand.Rand, n int) string
}

// serveMix is the traffic of the repository's own load generator,
// cgpserve -drive: its five statements, which every client cycles
// through in turn, so each kind is a fifth of the queries. The keys that
// generator fixes (unique2 = 42, BETWEEN 100 AND 199, ten = 3,
// unique2 < 20) are drawn from the seed here, with the same number of
// rows selected.
var serveMix = []stmtKind{
	{"point", func(rng *rand.Rand, n int) string {
		return fmt.Sprintf("SELECT unique1, unique2 FROM big1 WHERE unique2 = %d", rng.Intn(n))
	}},
	{"range100", func(rng *rand.Rand, n int) string {
		lo := rng.Intn(n - 99)
		return fmt.Sprintf("SELECT unique1 FROM big1 WHERE unique2 BETWEEN %d AND %d", lo, lo+99)
	}},
	{"count", func(rng *rand.Rand, n int) string {
		return fmt.Sprintf("SELECT COUNT(*) AS n FROM big1 WHERE ten = %d", rng.Intn(10))
	}},
	{"groupby", func(rng *rand.Rand, n int) string {
		return "SELECT two, COUNT(*) AS n FROM big1 GROUP BY two"
	}},
	{"small20", func(rng *rand.Rand, n int) string {
		// small holds max(10, n/10) rows (workload.WisconsinDB).
		small := max(10, n/10)
		w := min(20, small)
		lo := rng.Intn(small - w + 1)
		return fmt.Sprintf("SELECT unique1 FROM small WHERE unique2 BETWEEN %d AND %d", lo, lo+w-1)
	}},
}

// answer identifies a result set independent of row order: its row
// count and the sum of its rows' hashes.
type answer struct {
	rows int
	sum  uint64
}

func answerOf(rows [][]string) answer {
	a := answer{rows: len(rows)}
	for _, r := range rows {
		h := fnv.New64a()
		h.Write([]byte(strings.Join(r, "\x1f")))
		a.sum += h.Sum64()
	}
	return a
}

// stringify renders tuples the way the server does on the wire.
func stringify(ts []catalog.Tuple) [][]string {
	rows := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, t.Schema.NumCols())
		for c := range row {
			if t.Schema.Col(c).Type == catalog.Int {
				row[c] = strconv.FormatInt(t.Int(c), 10)
			} else {
				row[c] = t.Str(c)
			}
		}
		rows[i] = row
	}
	return rows
}

// queryPool is the seeded set of statements the clients draw from,
// each with the answer a twin engine gave. Statement i is of kind
// i % len(serveMix).
type queryPool struct {
	stmts []string
	want  []answer
}

// newQueryPool draws the statements and answers each on twin; a
// statement drawn twice is answered once.
func newQueryPool(spec serveSpec, seed int64, twin *db.Engine) (*queryPool, error) {
	rng := rand.New(rand.NewSource(seed))
	n := spec.perKind * len(serveMix)
	p := &queryPool{stmts: make([]string, n), want: make([]answer, n)}
	answers := map[string]answer{}
	for i := range p.stmts {
		src := serveMix[i%len(serveMix)].stmt(rng, spec.wiscN)
		a, ok := answers[src]
		if !ok {
			ts, err := sql.Run(twin, src)
			if err != nil {
				return nil, fmt.Errorf("twin %q: %w", src, err)
			}
			a = answerOf(stringify(ts))
			answers[src] = a
		}
		p.stmts[i], p.want[i] = src, a
	}
	return p, nil
}

// loadDB builds and loads an engine for the workload.
func loadDB(spec serveSpec, seed int64) (*db.Engine, error) {
	e := db.NewEngine(db.Options{BufferFrames: spec.frames})
	if err := (workload.WisconsinDB{N: spec.wiscN}).Load(e, seed); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	return e, nil
}

// served is a running server over an engine, with its dialed clients.
type served struct {
	s       *server.Server
	cancel  context.CancelFunc
	capture *server.LiveCapture
	tracer  *obs.QueryTracer
	clients []*server.Client
}

// serve starts a server over e and dials the clients. A traced server
// records query spans, and its clients tag each query with a trace ID.
func serve(ctx context.Context, e *db.Engine, spec serveSpec, traced bool) (*served, error) {
	x := &served{}
	if spec.capture {
		x.capture = server.NewLiveCapture(server.CaptureOptions{})
	}
	if traced {
		x.tracer = obs.NewQueryTracer(obs.QueryTraceOptions{Keep: spanKeep + warmupQueries})
	}
	x.s = server.New(e, server.Options{Addr: "127.0.0.1:0", Capture: x.capture, Trace: x.tracer})
	ctx, x.cancel = context.WithCancel(ctx)
	if err := x.s.Start(ctx); err != nil {
		x.cancel()
		return nil, errors.Join(err, x.close())
	}
	for i := 0; i < clients; i++ {
		c, err := server.Dial(x.s.Addr())
		if err != nil {
			return nil, errors.Join(err, x.close())
		}
		if traced {
			c.SetTraceBase(uint64(i+1) << 32)
		}
		x.clients = append(x.clients, c)
	}
	return x, nil
}

// close stops the server, waits for it, and seals its capture.
func (x *served) close() error {
	for _, c := range x.clients {
		c.Close()
	}
	x.cancel()
	x.s.Wait()
	var err error
	if x.capture != nil {
		_, err = x.capture.Seal(nil)
	}
	return errors.Join(err, x.tracer.Close())
}

// clientLog is one client's record of a closed-loop run.
type clientLog struct {
	lat    []time.Duration // latency of each correct answer
	kinds  []uint8         // its statement kind, an index into serveMix
	ids    []uint64        // its trace ID, on a traced server
	failed int64
	err    error // the first failure
}

// drive runs the clients closed-loop, each sending its next query when
// the last one returned, until d has passed (d > 0) or each client sent
// n queries (n > 0), whichever comes first. Client i sends the mix's
// kinds in turn from kind i on, as cgpserve -drive does, each time a
// random pool statement of the kind. Every answer is checked against
// the pool.
func drive(x *served, pool *queryPool, seed int64, d time.Duration, n int) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, len(x.clients))
	var wg sync.WaitGroup
	start := now()
	for i, c := range x.clients {
		logs[i] = &clientLog{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := logs[i]
			rng := rand.New(rand.NewSource(seed + int64(i+1)*7919))
			kinds := len(serveMix)
			for sent := 0; ; sent++ {
				if (d > 0 && since(start) >= d) || (n > 0 && sent >= n) {
					return
				}
				kind := (i + sent) % kinds
				k := kind + kinds*rng.Intn(len(pool.stmts)/kinds)
				s := now()
				res, err := c.Query(pool.stmts[k])
				lat := since(s)
				switch {
				case err != nil:
				case answerOf(res.Rows) != pool.want[k]:
					err = fmt.Errorf("%q: %d rows, want %d", pool.stmts[k], len(res.Rows), pool.want[k].rows)
				}
				if err != nil {
					l.failed++
					if l.err == nil {
						l.err = err
					}
					continue
				}
				l.lat = append(l.lat, lat)
				l.kinds = append(l.kinds, uint8(kind))
				if x.tracer != nil {
					l.ids = append(l.ids, c.LastTraceID())
				}
			}
		}()
	}
	wg.Wait()
	return logs, since(start)
}

// failures sums the clients' failed queries and returns the first error.
func failures(logs []*clientLog) (int64, error) {
	var n int64
	var first error
	for _, l := range logs {
		n += l.failed
		if first == nil {
			first = l.err
		}
	}
	return n, first
}

// setupOnce is one serving set-up as a client pays for it: load and
// index the database, start the server, dial, and warm up.
func setupOnce(ctx context.Context, spec serveSpec, seed int64, pool *queryPool) (*db.Engine, *served, time.Duration, error) {
	s := now()
	e, err := loadDB(spec, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	x, err := serve(ctx, e, spec, false)
	if err != nil {
		return nil, nil, 0, err
	}
	logs, _ := drive(x, pool, seed+1, 0, warmupQueries/len(x.clients))
	d := since(s)
	if n, err := failures(logs); n > 0 {
		return nil, nil, 0, errors.Join(fmt.Errorf("warm-up: %d queries failed: %w", n, err), x.close())
	}
	return e, x, d, nil
}

// window is one measured closed-loop run.
type window struct {
	lat     []time.Duration
	elapsed time.Duration
	sent    int64
	fails   int64
	err     error
	logs    []*clientLog
}

// measure drives x for d, or until each client sent n queries (see
// drive), and summarizes the run.
func measure(x *served, pool *queryPool, seed int64, d time.Duration, n int) *window {
	logs, elapsed := drive(x, pool, seed, d, n)
	w := &window{logs: logs, elapsed: elapsed}
	for _, l := range logs {
		w.lat = append(w.lat, l.lat...)
	}
	w.fails, w.err = failures(logs)
	w.sent = int64(len(w.lat)) + w.fails
	return w
}

// qps is the window's answered queries per second.
func (w *window) qps() float64 { return float64(len(w.lat)) / w.elapsed.Seconds() }

// measureSliced drives x for d in slices of sliceLen, with a host speed
// probe round after each, and returns the slices' queries as one window.
func measureSliced(x *served, pool *queryPool, seed int64, d time.Duration, probe *speedProbe) *window {
	all := &window{}
	start := now()
	for i := int64(0); i == 0 || since(start)+sliceLen <= d; i++ {
		w := measure(x, pool, seed+i, sliceLen, 0)
		probe.run(1)
		all.lat = append(all.lat, w.lat...)
		all.elapsed += w.elapsed
		all.sent += w.sent
		all.fails += w.fails
		if all.err == nil {
			all.err = w.err
		}
		all.logs = append(all.logs, w.logs...)
	}
	return all
}

// kindSummary renders each statement kind's measured share of the
// answered queries and its median latency.
func kindSummary(logs []*clientLog) string {
	lat := make([][]time.Duration, len(serveMix))
	total := 0
	for _, l := range logs {
		for i, k := range l.kinds {
			lat[k] = append(lat[k], l.lat[i])
		}
		total += len(l.kinds)
	}
	parts := make([]string, len(serveMix))
	for k, ls := range lat {
		p50 := 0.0
		if len(ls) > 0 {
			p50 = millis(quantile(ls, 0.5))
		}
		parts[k] = fmt.Sprintf("%s %d (%.1f%%, p50_ms %.4g)", serveMix[k].name, len(ls), 100*float64(len(ls))/float64(max(1, total)), p50)
	}
	return strings.Join(parts, ", ")
}

// runServe measures a serving workload: several set-ups, then a
// closed-loop run of the clients in slices for the run's time, with host
// speed probe rounds after every set-up and slice, then (traced) the
// same run against a traced server and the engine layers on a twin.
func runServe(ctx context.Context, name string, spec serveSpec, cfg runConfig) (*outcome, error) {
	twin, err := loadDB(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	pool, err := newQueryPool(spec, cfg.seed, twin)
	if err != nil {
		return nil, err
	}
	probe := newSpeedProbe(clients)
	// Each set-up, and the measured run, starts from a collected heap, so
	// garbage from the one before does not land in this one's time or
	// peak RSS.
	var setups []time.Duration
	var e *db.Engine
	var x *served
	for i := 0; i < setupReps; i++ {
		if x != nil {
			if err := x.close(); err != nil {
				return nil, err
			}
			e, x = nil, nil
		}
		debug.FreeOSMemory()
		var d time.Duration
		e, x, d, err = setupOnce(ctx, spec, cfg.seed, pool)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		probe.run(1)
	}
	// Peak RSS is read before the measured run: the engine's transaction
	// log keeps every record in memory, so a peak read after it would grow
	// with the number of queries served.
	rss := peakRSSMB()
	debug.FreeOSMemory()
	w := measureSliced(x, pool, cfg.seed, cfg.seconds, probe)
	if err := x.close(); err != nil {
		return nil, err
	}

	o := &outcome{attempted: w.sent, failed: w.fails}
	if w.fails > 0 {
		o.note("%d queries failed, first: %v", w.fails, w.err)
	}
	if len(w.lat) == 0 {
		return nil, fmt.Errorf("no query succeeded: %v", w.err)
	}
	speed := probe.speed()
	o.e2e = map[string]float64{
		"setup_s":     atRef(median(setups), speed).Seconds(),
		"p50_ms":      millis(atRef(quantile(w.lat, 0.5), speed)),
		"throughput":  w.qps() / speed,
		"peak_rss_mb": rss,
	}
	o.note("%s: %d closed-loop client(s), %d queries from a pool of %d; host speed %.3f, probe round_s %s",
		name, clients, len(w.lat), len(pool.stmts), speed, formatDurations(probe.times))
	o.note("%s: raw setup_s %s; raw p50_ms %.4g, qps %.0f, p99_ms %.4g, p999_ms %.4g",
		name, formatDurations(setups), millis(quantile(w.lat, 0.5)), w.qps(),
		millis(quantile(w.lat, 0.99)), millis(quantile(w.lat, 0.999)))
	o.note("%s: by kind: %s", name, kindSummary(w.logs))
	if cfg.trace {
		if err := traceServe(ctx, name, spec, cfg, e, twin, pool, w.qps(), o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// traceServe is the traced run of a serving workload: the same
// closed-loop run against a traced server over the same engine, ended
// after spanKeep queries if the run's time has not passed first, joined
// span by span to the client's timings, plus the engine layers timed on
// the twin. untracedQPS is the untraced run's raw qps.
func traceServe(ctx context.Context, name string, spec serveSpec, cfg runConfig, e, twin *db.Engine, pool *queryPool, untracedQPS float64, o *outcome) error {
	x, err := serve(ctx, e, spec, true)
	if err != nil {
		return err
	}
	logs, _ := drive(x, pool, cfg.seed+1, 0, warmupQueries/len(x.clients))
	if n, err := failures(logs); n > 0 {
		return errors.Join(fmt.Errorf("traced warm-up: %d queries failed: %w", n, err), x.close())
	}
	w := measure(x, pool, cfg.seed, cfg.seconds, spanKeep/len(x.clients))
	capture := x.capture
	if err := x.close(); err != nil {
		return err
	}
	o.attempted += w.sent
	o.failed += w.fails

	layers := newLayers()
	layers["obs.tracing_overhead_pct"] = 100 * (1 - w.qps()/untracedQPS)
	if capture != nil {
		layers["capture.committed"] = float64(capture.Committed())
		layers["capture.drops"] = float64(capture.Drops())
	}
	joinSpans(x.tracer.Spans(), w.logs, layers, o)
	if err := engineLayers(twin, pool, layers); err != nil {
		return err
	}
	o.layers = layers
	var buf bytes.Buffer
	if err := x.tracer.WriteChromeTrace(&buf); err != nil {
		return err
	}
	return writeTrace(cfg, name, o, map[string][]byte{"queries.json": buf.Bytes()})
}

// joinSpans joins the server's query spans to the clients' timings by
// trace ID and fills the serving layers with per-query means: the six
// stages, the span time outside any stage (executor-mutex wait and
// response encoding) and the client latency outside the span (network
// and client).
func joinSpans(spans []obs.QuerySpanData, logs []*clientLog, layers map[string]float64, o *outcome) {
	client := map[uint64]time.Duration{}
	sent := 0
	for _, l := range logs {
		sent += len(l.lat)
		for i, id := range l.ids {
			client[id] = l.lat[i]
		}
	}
	var stages [obs.NumQueryStages]time.Duration
	var unstaged, gap, latency time.Duration
	joined := 0
	for _, sp := range spans {
		lat, ok := client[sp.ID]
		if !ok || sp.Status != obs.StatusOK {
			continue
		}
		joined++
		var staged time.Duration
		for st, d := range sp.Stages {
			stages[st] += wallDur(d)
			staged += wallDur(d)
		}
		total := wallDur(sp.Total)
		unstaged += max(0, total-staged)
		gap += max(0, lat-total)
		latency += lat
	}
	o.check("query spans join client timings", joined == sent,
		"%d of %d window queries joined by trace ID", joined, sent)
	if joined == 0 {
		return
	}
	mean := func(d time.Duration) float64 { return micros(d) / float64(joined) }
	names := map[obs.QueryStage]string{
		obs.StageDecode: "server.decode_us", obs.StageAdmission: "server.admission_us",
		obs.StagePrep: "server.prep_us", obs.StageExecute: "server.execute_us",
		obs.StageDrain: "server.drain_us", obs.StageCapture: "server.capture_us",
	}
	parts := mean(unstaged) + mean(gap)
	for st, d := range stages {
		layers[names[obs.QueryStage(st)]] = mean(d)
		parts += mean(d)
	}
	layers["server.unstaged_us"] = mean(unstaged)
	layers["net.gap_us"] = mean(gap)
	off := parts/mean(latency) - 1
	o.check("serving layers sum to client latency", max(off, -off) <= layerSumTolerance,
		"stages + unstaged + gap = %.2f us against %.2f us client latency", parts, mean(latency))
}

// twinStmts is how many pool statements the twin engine times: fifty of
// each kind, in the traffic's shares.
const twinStmts = 250

// engineLayers times parse, plan and execution of the first twinStmts
// pool statements on the twin engine, and reads its buffer pool and disk
// counters over the same statements.
func engineLayers(e *db.Engine, pool *queryPool, layers map[string]float64) error {
	stmts := pool.stmts[:min(len(pool.stmts), twinStmts)]
	ps0, reads0 := e.Pool.Stats(), e.Disk.Reads()
	var parse, plan, run time.Duration
	for _, src := range stmts {
		s := now()
		stmt, err := sql.Parse(src)
		parse += since(s)
		if err != nil {
			return fmt.Errorf("twin parse %q: %w", src, err)
		}
		tx := e.Txns.Begin()
		ectx := e.NewContext(tx)
		s = now()
		it, into, err := sql.Plan(e, ectx, stmt)
		plan += since(s)
		if err == nil {
			s = now()
			_, err = e.RunQuery(ectx, it, into)
			run += since(s)
		}
		if err != nil {
			e.Txns.Abort(tx)
			return fmt.Errorf("twin %q: %w", src, err)
		}
		if err := e.Txns.Commit(tx); err != nil {
			return err
		}
		e.Arena.Reset()
	}
	ps, reads := e.Pool.Stats(), e.Disk.Reads()
	n := float64(len(stmts))
	mean := func(d time.Duration) float64 { return micros(d) / n }
	layers["sql.parse_us"] = mean(parse)
	layers["sql.plan_us"] = mean(plan)
	layers["exec.run_us"] = mean(run)
	hits, misses := float64(ps.Hits-ps0.Hits), float64(ps.Misses-ps0.Misses)
	if hits+misses > 0 {
		layers["storage.pool_hit_rate"] = hits / (hits + misses)
	}
	layers["storage.disk_reads_per_query"] = float64(reads-reads0) / n
	layers["storage.evictions_per_query"] = float64(ps.Evictions-ps0.Evictions) / n
	return nil
}
