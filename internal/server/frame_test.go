package server

import (
	"errors"
	"reflect"
	"strconv"
	"testing"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	var hdr [frameHeaderLen]byte
	for _, n := range []int{0, 1, 255, 256, 1 << 16, maxRequestFrame} {
		putFrameHeader(hdr[:], msgQuery, n)
		typ, got, err := parseFrameHeader(hdr[:], maxRequestFrame)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if typ != msgQuery || got != n {
			t.Fatalf("n=%d: decoded (%q, %d)", n, typ, got)
		}
	}
}

func TestFrameHeaderRejectsOversize(t *testing.T) {
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], msgQuery, maxRequestFrame+1)
	if _, _, err := parseFrameHeader(hdr[:], maxRequestFrame); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize frame: err = %v, want ErrTooLarge", err)
	}
}

func TestFrameHeaderRejectsShort(t *testing.T) {
	if _, _, err := parseFrameHeader([]byte{1, 2}, maxRequestFrame); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short header: err = %v, want ErrMalformed", err)
	}
}

// rowsResult and materializedResult are the round-trip tests' results;
// with garbageResults they seed FuzzDecodeResult.
var (
	rowsResult = &Result{
		Cols: []string{"unique1", "stringu1"},
		Rows: [][]string{{"1", "abc"}, {"2", ""}, {"-7", "x y z"}},
	}
	materializedResult = &Result{Materialized: 12345}
)

// garbageResults are payloads decodeResult must reject.
var garbageResults = [][]byte{
	{},                                // empty
	{0xff},                            // truncated uvarint
	{0, 2, 1, 'a'},                    // promises 2 cols, delivers 1
	{0, 1, 5, 'a', 'b'},               // string length beyond payload
	{0, 0, 1},                         // a row of no columns
	{0, 0, 0x80, 0x80, 0x80, 0x20},    // 64<<20 rows of no columns
	{0, 1, 1, 'c', 3, 1, 'x', 1, 'y'}, // promises 3 rows, delivers 2
	{0, 1, 1, 'c', 1, 1, 'x', 0},      // trailing bytes after the rows
}

func TestResultRoundTrip(t *testing.T) {
	buf := encodeResult(nil, rowsResult)
	out, err := decodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cols) != 2 || out.Cols[1] != "stringu1" {
		t.Fatalf("cols = %v", out.Cols)
	}
	if len(out.Rows) != 3 || out.Rows[2][0] != "-7" || out.Rows[1][1] != "" {
		t.Fatalf("rows = %v", out.Rows)
	}
}

func TestResultRoundTripMaterialized(t *testing.T) {
	buf := encodeResult(nil, materializedResult)
	out, err := decodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Materialized != 12345 || len(out.Cols) != 0 || len(out.Rows) != 0 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestDecodeResultRejectsGarbage(t *testing.T) {
	for _, p := range garbageResults {
		if _, err := decodeResult(p); err == nil {
			t.Fatalf("decodeResult(%v) accepted garbage", p)
		}
	}
}

// TestDecodeResultAllocsIndependentOfRows decodes 1 and then 100 rows
// of one column: the rows share one string and one cell slice, so both
// decodes allocate exactly the same.
func TestDecodeResultAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		res := &Result{Cols: []string{"unique1"}}
		for i := 0; i < n; i++ {
			res.Rows = append(res.Rows, []string{strconv.Itoa(1000 + i)})
		}
		p := encodeResult(nil, res)
		return testing.AllocsPerRun(20, func() {
			if out, err := decodeResult(p); err != nil || len(out.Rows) != n {
				t.Fatalf("decode: %v", err)
			}
		})
	}
	if one, many := allocs(1), allocs(100); one != many {
		t.Errorf("decoding 1 row allocates %.0f times, 100 rows %.0f", one, many)
	}
}

// FuzzDecodeResult feeds decodeResult arbitrary payloads. It must not
// panic and may fail only with ErrMalformed. A payload it accepts must
// re-encode to one that decodes to an equal Result, and appending to a
// decoded row must leave the next row as it was.
func FuzzDecodeResult(f *testing.F) {
	f.Add(encodeResult(nil, rowsResult))
	f.Add(encodeResult(nil, materializedResult))
	for _, p := range garbageResults {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		res, err := decodeResult(p)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("error %v is not ErrMalformed", err)
			}
			return
		}
		again, err := decodeResult(encodeResult(nil, res))
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", res, err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("round trip changed the result:\n%+v\n%+v", res, again)
		}
		for i := 0; i+1 < len(res.Rows); i++ {
			next := append([]string(nil), res.Rows[i+1]...)
			_ = append(res.Rows[i], "appended")
			if !reflect.DeepEqual(res.Rows[i+1], next) {
				t.Fatalf("appending to row %d changed row %d to %q", i, i+1, res.Rows[i+1])
			}
		}
	})
}

func TestErrorCodesRoundTrip(t *testing.T) {
	for _, sentinel := range []error{
		ErrOverloaded, ErrDeadline, ErrStaleStatement, ErrShutdown, ErrTooLarge, ErrMalformed,
	} {
		payload := encodeError(nil, codeFor(sentinel), sentinel.Error())
		back := decodeError(payload)
		if !errors.Is(back, sentinel) {
			t.Fatalf("round-tripped %v came back as %v", sentinel, back)
		}
	}
}
