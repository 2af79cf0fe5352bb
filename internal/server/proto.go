package server

import (
	"encoding/binary"
	"fmt"
)

// Payload codecs for the typed messages. Strings and rows are
// uvarint-length-prefixed; the layouts are versionless because the
// frame type byte discriminates them and the protocol ships with the
// binary on both sides.

// Result is one query's answer. A plain SELECT carries Cols/Rows; a
// SELECT INTO carries only Materialized (the rows written to the
// target file stay server-side, as in the in-process engine).
type Result struct {
	Cols         []string
	Rows         [][]string
	Materialized int64
}

// appendString appends one uvarint-length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// takeString decodes one length-prefixed string, returning the rest.
func takeString(p []byte, bound int) (string, []byte, error) {
	n, used := binary.Uvarint(p)
	if used <= 0 || n > uint64(bound) || n > uint64(len(p)-used) {
		return "", nil, ErrMalformed
	}
	return string(p[used : used+int(n)]), p[used+int(n):], nil
}

// encodeResult appends the wire form of res to buf.
func encodeResult(buf []byte, res *Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(res.Materialized))
	buf = binary.AppendUvarint(buf, uint64(len(res.Cols)))
	for _, c := range res.Cols {
		buf = appendString(buf, c)
	}
	buf = binary.AppendUvarint(buf, uint64(len(res.Rows)))
	for _, row := range res.Rows {
		for _, cell := range row {
			buf = appendString(buf, cell)
		}
	}
	return buf
}

// decodeResult parses a msgResult payload. The cells of all rows are
// cut from one string, a copy of the row section, and share one slice.
func decodeResult(p []byte) (*Result, error) {
	mat, used := binary.Uvarint(p)
	if used <= 0 {
		return nil, ErrMalformed
	}
	p = p[used:]
	ncols, used := binary.Uvarint(p)
	if used <= 0 || ncols > 1<<16 {
		return nil, ErrMalformed
	}
	p = p[used:]
	var cols []string
	for i := uint64(0); i < ncols; i++ {
		var (
			c   string
			err error
		)
		if c, p, err = takeString(p, maxResponseFrame); err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	nrows, used := binary.Uvarint(p)
	if used <= 0 {
		return nil, ErrMalformed
	}
	p = p[used:]
	// Every cell takes at least its length byte, and no row is empty:
	// rows that cannot fit in the bytes left are rejected before any is
	// allocated.
	if nrows > 0 && (ncols == 0 || nrows > uint64(len(p))/ncols) {
		return nil, ErrMalformed
	}
	all := string(p)
	cells := make([]string, nrows*ncols)
	off := 0
	for i := range cells {
		n, used := binary.Uvarint(p[off:])
		if used <= 0 || n > uint64(len(p)-off-used) {
			return nil, ErrMalformed
		}
		off += used
		cells[i] = all[off : off+int(n)]
		off += int(n)
	}
	if off != len(p) {
		return nil, ErrMalformed
	}
	return &Result{Cols: cols, Rows: cutRows(cells, int(nrows), int(ncols)), Materialized: int64(mat)}, nil
}

// cutRows cuts nrows rows of ncols cells each out of cells, or returns
// nil for no rows. Each row is capped at its own cells, so appending to
// one cannot overwrite the next.
func cutRows(cells []string, nrows, ncols int) [][]string {
	if nrows == 0 {
		return nil
	}
	rows := make([][]string, nrows)
	for i := range rows {
		rows[i] = cells[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	return rows
}

// encodeError appends a wire error payload: one code byte + message.
func encodeError(buf []byte, code byte, msg string) []byte {
	buf = append(buf, code)
	return append(buf, msg...)
}

// decodeError parses a msgError payload into a typed error.
func decodeError(p []byte) error {
	if len(p) < 1 {
		return ErrMalformed
	}
	return errFromWire(p[0], string(p[1:]))
}

// traceIDLen is the fixed width of the wire trace-ID prefix carried by
// the traced message types.
const traceIDLen = 8

// appendTraceID appends an 8-byte big-endian trace id.
func appendTraceID(buf []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(buf, id)
}

// takeTraceID splits a traced payload into its trace id and the
// wrapped payload. A missing or zero id is a protocol violation: the
// traced message types exist precisely to carry a usable id.
func takeTraceID(p []byte) (uint64, []byte, error) {
	if len(p) < traceIDLen {
		return 0, nil, fmt.Errorf("%w: truncated trace id", ErrMalformed)
	}
	id := binary.BigEndian.Uint64(p)
	if id == 0 {
		return 0, nil, fmt.Errorf("%w: zero trace id", ErrMalformed)
	}
	return id, p[traceIDLen:], nil
}

// encodeStmtID appends a uvarint statement id (msgExec, msgPrepared).
func encodeStmtID(buf []byte, id uint64) []byte {
	return binary.AppendUvarint(buf, id)
}

// decodeStmtID parses a uvarint statement id payload.
func decodeStmtID(p []byte) (uint64, error) {
	id, used := binary.Uvarint(p)
	if used <= 0 || used != len(p) {
		return 0, fmt.Errorf("%w: bad statement id", ErrMalformed)
	}
	return id, nil
}
