package server

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
)

// pipeClient returns a Client whose peer, over a net.Pipe, reads one
// request frame, answers it with resp verbatim and closes.
func pipeClient(t testing.TB, resp []byte) *Client {
	cli, srv := net.Pipe()
	req := make([]byte, 64)
	go func() {
		defer srv.Close()
		var hdr [frameHeaderLen]byte
		if _, err := io.ReadFull(srv, hdr[:]); err != nil {
			return
		}
		_, n, err := parseFrameHeader(hdr[:], len(req))
		if err != nil {
			return
		}
		if _, err := io.ReadFull(srv, req[:n]); err != nil {
			return
		}
		srv.Write(resp)
	}()
	t.Cleanup(func() { cli.Close() })
	return NewClient(cli)
}

// frame returns a response frame of type typ carrying payload.
func frame(typ byte, payload []byte) []byte {
	f := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	putFrameHeader(f, typ, len(payload))
	return append(f, payload...)
}

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestClientBoundsHostileResponseLength answers a query with a header
// that claims the largest payload a response may have and then closes.
// The client must fail with a truncated payload and allocate for what
// arrived, not for what the header claimed.
func TestClientBoundsHostileResponseLength(t *testing.T) {
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], msgResult, maxResponseFrame)
	c := pipeClient(t, hdr[:])
	var err error
	grew := allocated(func() { _, err = c.Query("SELECT 1") })
	if grew > 256<<10 {
		t.Errorf("a %d-byte claim with no payload allocated %d bytes", maxResponseFrame, grew)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Query = %v, want a wrapped io.ErrUnexpectedEOF", err)
	}
}

// typedClientError reports whether err is one a caller can classify:
// end of stream, a server sentinel, or a statement error.
func typedClientError(err error) bool {
	for _, sentinel := range []error{io.EOF, io.ErrUnexpectedEOF, ErrMalformed, ErrTooLarge,
		ErrOverloaded, ErrDeadline, ErrStaleStatement, ErrShutdown, ErrInternal} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	var qe *QueryError
	return errors.As(err, &qe)
}

// FuzzClientResponse answers a client's request with arbitrary bytes.
// The client must not panic, must fail only with typed errors (the
// decoders behind Query and Prepare included), and must allocate in
// proportion to the bytes the peer sent, never to the length a header
// claims: the payload buffer grows at most to twice what arrived, and
// growing by doubling allocates at most twice the final size.
func FuzzClientResponse(f *testing.F) {
	var huge [frameHeaderLen]byte
	putFrameHeader(huge[:], msgResult, maxResponseFrame)
	var oversize [frameHeaderLen]byte
	putFrameHeader(oversize[:], msgResult, maxResponseFrame+1)
	for _, seed := range [][]byte{
		frame(msgResult, encodeResult(nil, rowsResult)),
		frame(msgResult, encodeResult(nil, materializedResult)),
		frame(msgPrepared, encodeStmtID(nil, 7)),
		frame(msgError, encodeError(nil, codeOverloaded, "busy")),
		frame(msgError, encodeError(nil, codeQuery, "no such table")),
		frame(msgError, encodeError(nil, 99, "unknown code")),
		frame(msgError, nil),
		frame('?', []byte("unknown type")),
		append(huge[:], 0, 1, 2),
		oversize[:],
		{msgResult, 0},
		{},
	} {
		f.Add(seed)
	}
	const slack = 64 << 10
	f.Fuzz(func(t *testing.T, resp []byte) {
		var (
			typ     byte
			payload []byte
			err     error
		)
		// TotalAlloc counts the whole process, the fuzzing engine's
		// goroutines too, so the bound holds the least of three round
		// trips, each on a fresh client.
		least := ^uint64(0)
		for range 3 {
			c := pipeClient(t, resp)
			least = min(least, allocated(func() { typ, payload, err = c.roundTrip(msgQuery, []byte("SELECT 1")) }))
		}
		if limit := uint64(4*len(resp) + slack); least > limit {
			t.Fatalf("a %d-byte response allocated %d bytes, over %d", len(resp), least, limit)
		}
		if err == nil {
			if typ == msgPrepared {
				_, err = decodeStmtID(payload)
			} else {
				_, err = resultOf(typ, payload, nil)
			}
		}
		if err != nil && !typedClientError(err) {
			t.Fatalf("untyped error %v", err)
		}
	})
}
