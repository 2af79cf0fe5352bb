package cgp

// Pinned simulated streams. The engine's probe calls are the simulated
// instruction stream, so an engine edit that moves, adds or drops one
// call changes every figure built on it. These digests pin the decoded
// event stream of each database workload at a small scale, and of the
// served statement mix run through the SQL path under a full live
// capture, so such an edit fails `go test ./...` and not only the
// benchmark's full-size figure digest.
//
// A digest changes only when the simulated stream does. Update one only
// with a change that means to move the stream, and say so in its
// description.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"cgp/internal/program"
	"cgp/internal/server"
	"cgp/internal/trace"
	"cgp/internal/workload"
)

// streamDigest hashes every field of every decoded event of rec.
func streamDigest(t *testing.T, rec *trace.Recording) string {
	t.Helper()
	h := sha256.New()
	var b []byte
	err := rec.ReplayBatch(func(evs []trace.Event) error {
		for _, ev := range evs {
			b = b[:0]
			b = append(b, byte(ev.Kind))
			if ev.Taken {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.Addr))
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.Target))
			b = binary.LittleEndian.AppendUint64(b, uint64(ev.CallerStart))
			b = binary.LittleEndian.AppendUint32(b, uint32(ev.N))
			b = binary.LittleEndian.AppendUint32(b, uint32(ev.Iters))
			b = binary.LittleEndian.AppendUint32(b, uint32(ev.Fn))
			b = binary.LittleEndian.AppendUint32(b, uint32(ev.Caller))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d events %x", rec.Events(), h.Sum(nil))
}

// pinnedStreams are the digests of each stream, computed before the
// engine's host bookkeeping was reworked; the simulated stream must not
// have moved since.
var pinnedStreams = map[string]string{
	"wisc-prof":    "274266 events de1912a49f8447cfa9af5a13b53d0e3b9584cc1ca2ee41793d7bcf6abb911010",
	"wisc-large-1": "83308 events e28155bac0e33ffe66e09969a2c8eadb03e4872d1f028e81544384cde64a7146",
	"wisc-large-2": "161642 events 64929fc7944d76cd935674361f891913d18e5961206229a056995d6090b20d7e",
	"wisc+tpch":    "2608365 events 93dd2f6e124bdd07292340f4f19cd5f455197e62aaf654cd50bde30e9bb7a5b2",
	"served":       "13870 events 153f8932b193acc89e047142046442f902becceef443fbd7bc8cd587902f2961",
}

func TestPinnedSimulatedStreams(t *testing.T) {
	got := map[string]string{}
	for _, w := range workload.DBWorkloads(DBOptions{WiscN: 300, Seed: 11, BufferFrames: 2048}) {
		rec := trace.NewRecorder()
		if err := w.Run(program.LayoutO5(w.NewRegistry()), rec); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rg, err := rec.Finish()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		got[w.Name] = streamDigest(t, rg)
	}
	var drive []string
	for _, q := range server.DriveMix {
		drive = append(drive, q.SQL)
	}
	_, served := sealScriptedCapture(t, drive, 0)
	got["served"] = streamDigest(t, served)

	for name, want := range pinnedStreams {
		if got[name] != want {
			t.Errorf("%s stream moved:\n  got  %s\n  want %s", name, got[name], want)
		}
	}
	if len(got) != len(pinnedStreams) {
		t.Errorf("streams %v, pinned %d", got, len(pinnedStreams))
	}
}
