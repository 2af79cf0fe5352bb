package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cgp/internal/db"
	"cgp/internal/faultinject"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

// The network chaos suite: slow-loris stalls, mid-frame disconnects,
// deterministic frame corruption, sustained overload, and kill -9 +
// restart — each asserting the server sheds the fault, keeps serving
// healthy clients, and leaks no goroutines. Fault injection uses the
// faultinject conn wrappers on the CLIENT side, so every fault is a
// byte-exact, reproducible stream.

// TestMain doubles as the kill -9 victim: with CGP_SERVER_CHAOS_CHILD
// set, the test binary re-execs into a real serving process (own PID,
// own engine, live capture) that the parent test can SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv("CGP_SERVER_CHAOS_CHILD") == "1" {
		runChaosChild()
		return
	}
	os.Exit(m.Run())
}

// runChaosChild serves until SIGTERM (graceful: drain, seal capture,
// exit 0) or SIGKILL (the chaos: nothing runs, the capture file never
// appears).
func runChaosChild() {
	capPath := os.Getenv("CGP_SERVER_CAPTURE")
	e := db.NewEngine(db.Options{BufferFrames: 2048})
	if err := (workload.WisconsinDB{N: 200}).Load(e, 42); err != nil {
		fmt.Fprintln(os.Stderr, "child: load:", err)
		os.Exit(1)
	}
	lc := NewLiveCapture(CaptureOptions{SampleEvery: 1})
	s := New(e, Options{Addr: "127.0.0.1:0", Capture: lc})
	ctx, cancel := context.WithCancel(context.Background())
	// The handler must be live before the parent learns the address —
	// it sends SIGTERM as soon as its queries finish, possibly before
	// this goroutine runs again.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	if err := s.Start(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "child: start:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", s.Addr())
	<-sig
	cancel()
	s.Wait()
	f, err := os.Create(capPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: create capture:", err)
		os.Exit(1)
	}
	if _, err := lc.Seal(f); err != nil {
		fmt.Fprintln(os.Stderr, "child: seal:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "child: close capture:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startChild re-execs the test binary as a serving child process and
// returns its handle plus listen address.
func startChild(t *testing.T, capPath string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"CGP_SERVER_CHAOS_CHILD=1",
		"CGP_SERVER_CAPTURE="+capPath,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
			return cmd, addr
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatal("child exited before announcing its address")
	return nil, ""
}

func TestChaosSlowLoris(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{FrameTimeout: 40 * time.Millisecond})

	// The attacker: a header promising 100 bytes, then a trickle that
	// never finishes.
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], msgQuery, 100)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("SEL")); err != nil {
		t.Fatal(err)
	}
	// The server must hang up within ~FrameTimeout, not wait forever.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server kept the slow-loris connection alive (read err = %v)", err)
	}

	// A healthy client is unaffected.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
		t.Fatalf("healthy client after slow-loris: %v", err)
	}
}

func TestChaosMidQueryDisconnect(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{})

	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// The conn dies 8 bytes in: mid-frame, header sent, payload cut.
	c := NewClient(faultinject.DropAfterN(raw, 8))
	c.SetTimeout(2 * time.Second)
	if _, err := c.Query("SELECT COUNT(*) AS n FROM big1"); err == nil {
		t.Fatal("query over a dropped connection succeeded")
	}
	c.Close()

	healthy, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if _, err := healthy.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
		t.Fatalf("healthy client after mid-frame disconnect: %v", err)
	}
}

func TestChaosMalformedFrames(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{})

	// Deterministically corrupted client: one byte flipped per 16-byte
	// window past the first. The first frame's header survives (window
	// 0), its SQL text does not.
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(faultinject.CorruptFrame(raw, 7, 16))
	c.SetTimeout(2 * time.Second)
	sawError := false
	for i := 0; i < 5 && !sawError; i++ {
		if _, err := c.Query("SELECT unique1 FROM big1 WHERE unique2 = 5"); err != nil {
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("five corrupted queries all succeeded")
	}
	c.Close()

	// An unknown message type gets a typed protocol error, then close.
	raw2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw2.Close()
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], 'Z', 4)
	raw2.Write(hdr[:])
	raw2.Write([]byte("junk"))
	raw2.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(raw2)
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("no response to unknown message type: %v", err)
	}
	typ, n, err := parseFrameHeader(hdr[:], maxResponseFrame)
	if err != nil || typ != msgError {
		t.Fatalf("response = (%q, %v), want msgError", typ, err)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(decodeError(payload), ErrMalformed) {
		t.Fatalf("unknown-type error = %v, want ErrMalformed", decodeError(payload))
	}
	// The server hangs up after a protocol violation.
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection stayed open after protocol violation (err = %v)", err)
	}

	healthy, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if _, err := healthy.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
		t.Fatalf("healthy client after malformed frames: %v", err)
	}
}

func TestChaosSustainedOverload(t *testing.T) {
	leakCheck(t)
	s := startServer(t, testEngine(t), Options{MaxInflight: 2})

	const clients, perClient = 8, 10
	var (
		mu           sync.Mutex
		served, shed int
		unexpected   []error
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				mu.Lock()
				unexpected = append(unexpected, err)
				mu.Unlock()
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				_, err := c.Query("SELECT COUNT(*) AS n FROM big1 WHERE two = 0")
				mu.Lock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					unexpected = append(unexpected, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(unexpected) > 0 {
		t.Fatalf("non-overload failures under load: %v", unexpected)
	}
	if served == 0 {
		t.Fatal("overloaded server served nothing — shedding everything is not overload control")
	}
	if served+shed != clients*perClient {
		t.Fatalf("served %d + shed %d != %d issued", served, shed, clients*perClient)
	}
	t.Logf("overload: served=%d shed=%d", served, shed)

	// Load gone, service restored: a fresh client gets through.
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT COUNT(*) AS n FROM small"); err != nil {
		t.Fatalf("query after overload subsided: %v", err)
	}
}

func TestChaosKillDashNineAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	leakCheck(t)
	capPath := t.TempDir() + "/live.cgptrc"

	// Round 1: serve, then die mid-query with SIGKILL.
	child, addr := startChild(t, capPath)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*) AS n FROM big1"); err != nil {
		t.Fatalf("query against child: %v", err)
	}
	// Put a query in flight: write the request, kill before the answer.
	var frame []byte
	q := "SELECT unique1 FROM big1 WHERE unique2 BETWEEN 0 AND 199"
	frame = append(frame, 0, 0, 0, 0, 0)
	frame = append(frame, q...)
	putFrameHeader(frame[:frameHeaderLen], msgQuery, len(q))
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	err = child.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("child.Wait after SIGKILL = %v, want ExitError", err)
	}
	// The kill can land after the child answered the in-flight query.
	// Nothing but that one answer, whole, may precede the end of the
	// stream, and the stream must end rather than stay open.
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, rerr := io.ReadAll(c.conn)
	if errors.Is(rerr, os.ErrDeadlineExceeded) {
		t.Fatal("connection to a SIGKILLed server stayed open")
	}
	if len(got) > 0 {
		typ, n, err := parseFrameHeader(got, maxResponseFrame)
		if err != nil || typ != msgResult || len(got) != frameHeaderLen+n {
			t.Fatalf("SIGKILLed server sent %d bytes, not one whole result frame", len(got))
		}
		res, err := decodeResult(got[frameHeaderLen:])
		if err != nil {
			t.Fatalf("SIGKILLed server's last answer: %v", err)
		}
		if len(res.Rows) != 200 { // every row of the child's big1
			t.Fatalf("SIGKILLed server's last answer has %d rows, want 200", len(res.Rows))
		}
	}
	c.conn.Close()
	// The capture was never sealed: no file may exist, and a partial
	// artifact must not load as a valid recording.
	if f, err := os.Open(capPath); err == nil {
		_, lerr := trace.Load(f)
		f.Close()
		if lerr == nil {
			t.Fatal("unsealed capture from killed process loaded as valid")
		}
	}

	// Round 2: restart, serve again, stop gracefully, and the capture
	// seals as a well-formed probe recording.
	child2, addr2 := startChild(t, capPath)
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c2.Query("SELECT COUNT(*) AS n FROM big1"); err != nil {
			t.Fatalf("query after restart: %v", err)
		}
	}
	c2.Close()
	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.Wait(); err != nil {
		t.Fatalf("child after SIGTERM: %v", err)
	}
	f, err := os.Open(capPath)
	if err != nil {
		t.Fatalf("graceful shutdown left no capture: %v", err)
	}
	rec, err := trace.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !trace.IsProbeRecording(rec) || rec.Events() == 0 {
		t.Fatalf("restarted capture malformed: %+v", rec.Stats)
	}
}
