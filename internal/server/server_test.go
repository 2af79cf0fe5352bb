package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cgp/internal/db"
	"cgp/internal/obs"
	"cgp/internal/units"
	"cgp/internal/workload"
)

// testEngine seeds a small Wisconsin database.
func testEngine(t *testing.T) *db.Engine {
	t.Helper()
	e := db.NewEngine(db.Options{BufferFrames: 2048})
	if err := (workload.WisconsinDB{N: 200}).Load(e, 42); err != nil {
		t.Fatal(err)
	}
	return e
}

// startServer runs a server for the test's lifetime; cancellation and
// drain are registered as cleanups (drain before the leak check).
func startServer(t *testing.T, e *db.Engine, opts Options) *Server {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	s := New(e, opts)
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		s.Wait()
	})
	return s
}

// leakCheck snapshots the goroutine count and registers a cleanup that
// fails the test if it has not returned to the snapshot. Cleanups run
// LIFO, so call this FIRST, before startServer.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	})
}

func TestServeBasicQueries(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Query("SELECT unique1, unique2 FROM big1 WHERE unique2 BETWEEN 10 AND 14")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	if res.Cols[0] != "unique1" || res.Cols[1] != "unique2" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if res.Rows[0][1] != "10" {
		t.Fatalf("first row = %v", res.Rows[0])
	}

	// An erroring statement must not poison the connection.
	if _, err := c.Query("SELECT nope FROM nowhere"); err == nil {
		t.Fatal("query against missing table succeeded")
	}
	res, err = c.Query("SELECT COUNT(*) AS n FROM big1")
	if err != nil {
		t.Fatalf("connection unusable after statement error: %v", err)
	}
	if res.Rows[0][0] != "200" {
		t.Fatalf("count = %v", res.Rows[0])
	}
}

func TestServeSelectInto(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Query("SELECT unique1 INTO TMP FROM big1 WHERE unique2 < 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.Materialized != 50 || len(res.Rows) != 0 {
		t.Fatalf("materialized = %d rows = %d, want 50/0", res.Materialized, len(res.Rows))
	}
}

func TestPreparedStatements(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{PrepCap: 2})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Prepare("SELECT COUNT(*) AS n FROM big1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "200" {
		t.Fatalf("count = %v", res.Rows[0])
	}

	// Flood the 2-entry cache so st's id is evicted.
	for _, q := range []string{
		"SELECT COUNT(*) AS n FROM big1 WHERE two = 0",
		"SELECT COUNT(*) AS n FROM big1 WHERE two = 1",
	} {
		if _, err := c.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	// The raw handle is stale now — the typed error crosses the wire.
	if _, err := st.execOnce(); !errors.Is(err, ErrStaleStatement) {
		t.Fatalf("evicted exec: err = %v, want ErrStaleStatement", err)
	}
	// The public Exec re-prepares transparently.
	res, err = st.Exec()
	if err != nil {
		t.Fatalf("Exec after eviction: %v", err)
	}
	if res.Rows[0][0] != "200" {
		t.Fatalf("count after re-prepare = %v", res.Rows[0])
	}
}

func TestAdmissionShedsOnRate(t *testing.T) {
	leakCheck(t)
	// A frozen clock never refills the bucket: burst admits 2, then shed.
	frozen := func() units.WallNanos { return 1 }
	s := startServer(t, testEngine(t), Options{
		RatePerSec: 1, Burst: 2, Clock: frozen, QueryDeadline: -1,
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
			t.Fatalf("query %d within burst: %v", i, err)
		}
	}
	if _, err := c.Query("SELECT COUNT(*) AS n FROM small"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-burst query: err = %v, want ErrOverloaded", err)
	}
}

func TestQueryDeadline(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{QueryDeadline: time.Nanosecond})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT unique1 FROM big1"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// The handler survived the abort: the connection still answers
	// (every query on this server carries the same 1ns budget, so the
	// answer is the same typed error — liveness is the assertion).
	if _, err := c.Query("SELECT unique1 FROM big1"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("second query: err = %v, want ErrDeadline", err)
	}
}

func TestMaxConnsRefused(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{MaxConns: 1})
	c1, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Query("SELECT COUNT(*) AS n FROM small"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("refused conn: err = %v, want ErrOverloaded", err)
	}
}

func TestHTTPFallback(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{HTTPAddr: "127.0.0.1:0"})
	base := "http://" + s.HTTPAddr()

	resp, err := http.Post(base+"/query", "text/plain",
		strings.NewReader("SELECT COUNT(*) AS n FROM big1"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"200"`) {
		t.Fatalf("body = %s", body)
	}

	resp, err = http.Post(base+"/query", "text/plain", strings.NewReader("SELECT x FROM nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query status = %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
	}
}

// TestHTTPQueriesReachRunLog: HTTP queries go through the same serving
// function as TCP queries, so a served and a shed HTTP query each leave
// their run-log entry, labelled with the "http" connection.
func TestHTTPQueriesReachRunLog(t *testing.T) {
	leakCheck(t)
	var log bytes.Buffer
	// A frozen clock never refills the bucket: the burst admits one
	// query, and the next is shed.
	frozen := func() units.WallNanos { return 1 }
	s := New(testEngine(t), Options{
		Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		RatePerSec: 1, Burst: 1, Clock: frozen, QueryDeadline: -1,
		Log: obs.NewRunLog(&log),
	})
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	// stop drains the server before the log is read, and on any early
	// exit before the leak check runs.
	stop := sync.OnceFunc(func() { cancel(); s.Wait() })
	t.Cleanup(stop)
	for _, want := range []int{http.StatusOK, http.StatusServiceUnavailable} {
		resp, err := http.Post("http://"+s.HTTPAddr()+"/query", "text/plain",
			strings.NewReader("SELECT COUNT(*) AS n FROM small"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("status %d, want %d", resp.StatusCode, want)
		}
	}
	stop()
	entries, err := obs.ValidateRunLog(&log)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, e := range entries {
		if e.Config == httpConn {
			got[e.Event]++
		}
	}
	if got[string(obs.QueryServed)] != 1 || got[string(obs.QueryShed)] != 1 {
		t.Fatalf("run log holds HTTP events %v, want one %s and one %s", got, obs.QueryServed, obs.QueryShed)
	}
}

func TestShutdownDrains(t *testing.T) {
	leakCheck(t)
	e := testEngine(t)
	s := New(e, Options{Addr: "127.0.0.1:0"})
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
		t.Fatal(err)
	}
	cancel()
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after cancellation")
	}
	c.Close()
	// New connections must fail fast once the listener is gone.
	if _, err := Dial(s.Addr()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
