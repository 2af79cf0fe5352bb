package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"
)

// Client speaks the wire protocol. It is synchronous and not safe for
// concurrent use — one Client per goroutine (connections are cheap;
// the server pools them). Errors from the server come back typed:
// errors.Is(err, ErrOverloaded) etc. work across the socket.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	timeout time.Duration
	hdr     [frameHeaderLen]byte
	out     []byte
	// in holds the latest response payload (see readPayload).
	in []byte

	// Tracing state: when traced is set (SetTraceBase), every Query and
	// Exec goes out as its traced message type carrying a fresh
	// client-minted trace ID base+seq. lastTrace remembers the most
	// recent one so a driver can join its own latency numbers to the
	// server's spans and the capture's attribution rows.
	traced    bool
	traceNext uint64
	lastTrace uint64
}

// SetTraceBase turns on client-side trace tagging: subsequent queries
// carry IDs base+1, base+2, ... on the wire. Pick bases that keep
// concurrent clients' ID ranges disjoint (cgpserve drive uses
// client-index << 32).
func (c *Client) SetTraceBase(base uint64) {
	c.traced = true
	c.traceNext = base
}

// LastTraceID returns the trace ID the most recent Query/Exec carried
// (0 before the first traced request).
func (c *Client) LastTraceID() uint64 { return c.lastTrace }

// nextTraceID mints the next client trace ID, skipping 0 (the wire
// rejects zero IDs).
func (c *Client) nextTraceID() uint64 {
	c.traceNext++
	if c.traceNext == 0 {
		c.traceNext = 1
	}
	c.lastTrace = c.traceNext
	return c.traceNext
}

// Dial connects to a server's TCP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (tests inject fault-
// wrapped conns here).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 32<<10), timeout: 30 * time.Second}
}

// SetTimeout bounds each request round trip (default 30s).
func (c *Client) SetTimeout(d time.Duration) { c.timeout = d }

// Query runs one SQL statement.
func (c *Client) Query(src string) (*Result, error) {
	msg, payload := msgQuery, []byte(src)
	if c.traced {
		msg = msgQueryTraced
		payload = append(appendTraceID(make([]byte, 0, traceIDLen+len(src)), c.nextTraceID()), src...)
	}
	return resultOf(c.roundTrip(msg, payload))
}

// resultOf decodes the response to a statement: a result, or the
// error that stopped the round trip.
func resultOf(typ byte, resp []byte, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	if typ != msgResult {
		return nil, fmt.Errorf("%w: unexpected response type %q", ErrMalformed, typ)
	}
	return decodeResult(resp)
}

// Stmt is a prepared-statement handle.
type Stmt struct {
	c    *Client
	text string
	id   uint64
}

// Prepare caches src server-side and returns its handle.
func (c *Client) Prepare(src string) (*Stmt, error) {
	typ, payload, err := c.roundTrip(msgPrepare, []byte(src))
	if err != nil {
		return nil, err
	}
	if typ != msgPrepared {
		return nil, fmt.Errorf("%w: unexpected response type %q", ErrMalformed, typ)
	}
	id, err := decodeStmtID(payload)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, text: src, id: id}, nil
}

// Exec runs the prepared statement. If the server evicted the handle
// (ErrStaleStatement), Exec transparently re-prepares once and
// retries — the client contract the LRU cache is designed around.
func (st *Stmt) Exec() (*Result, error) {
	res, err := st.execOnce()
	if err == nil || !isStale(err) {
		return res, err
	}
	fresh, err := st.c.Prepare(st.text)
	if err != nil {
		return nil, err
	}
	st.id = fresh.id
	return st.execOnce()
}

func isStale(err error) bool {
	for e := err; e != nil; {
		if e == ErrStaleStatement {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func (st *Stmt) execOnce() (*Result, error) {
	msg, payload := msgExec, encodeStmtID(nil, st.id)
	if st.c.traced {
		msg = msgExecTraced
		payload = encodeStmtID(appendTraceID(nil, st.c.nextTraceID()), st.id)
	}
	return resultOf(st.c.roundTrip(msg, payload))
}

const (
	// respChunk is the least a response buffer grows by.
	respChunk = 4 << 10
	// maxKeptResponse caps the response buffer a Client keeps for the
	// next round trip; a larger one is dropped after its response.
	maxKeptResponse = 1 << 20
)

// roundTrip sends one frame and reads one response, surfacing wire
// errors as typed Go errors. The response payload is valid until the
// next round trip: every caller decodes it into copies (decodeResult,
// decodeError) or parses it (decodeStmtID).
func (c *Client) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(ioDeadline(c.timeout))
	}
	c.out = append(c.out[:0], 0, 0, 0, 0, 0)
	c.out = append(c.out, payload...)
	putFrameHeader(c.out[:frameHeaderLen], typ, len(payload))
	if _, err := c.conn.Write(c.out); err != nil {
		return 0, nil, fmt.Errorf("client: write: %w", err)
	}
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("client: read header: %w", err)
	}
	rtyp, n, err := parseFrameHeader(c.hdr[:], maxResponseFrame)
	if err != nil {
		return 0, nil, err
	}
	buf, err := c.readPayload(n)
	if err != nil {
		return 0, nil, fmt.Errorf("client: read payload: %w", err)
	}
	if rtyp == msgError {
		return 0, nil, decodeError(buf)
	}
	return rtyp, buf, nil
}

// readPayload reads an n-byte response payload into c.in. n is what
// the header claims, not bytes in hand, so the buffer grows only as
// bytes arrive: to what the reader already holds, or to twice what has
// been read, at least respChunk and never past n. A peer that claims
// 64 MiB and sends nothing costs one chunk. A payload that ends early
// is io.ErrUnexpectedEOF, even with no byte of it read: its frame had
// begun.
func (c *Client) readPayload(n int) ([]byte, error) {
	buf := c.in[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(2*len(buf), len(buf)+c.br.Buffered(), respChunk)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(c.br, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	c.in = buf
	if cap(buf) > maxKeptResponse {
		c.in = nil
	}
	return buf, nil
}

// Close sends the goodbye frame (best-effort) and closes the
// connection.
func (c *Client) Close() error {
	c.conn.SetDeadline(ioDeadline(time.Second))
	var bye [frameHeaderLen]byte
	putFrameHeader(bye[:], msgBye, 0)
	c.conn.Write(bye[:])
	return c.conn.Close()
}
