package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cgp/internal/isa"
	"cgp/internal/program"
)

// The binary trace format: an 8-byte magic header followed by one
// delta-coded record per event. Traces are normally streamed straight
// into the simulator, but capture/replay is useful for debugging and
// for decoupling expensive query execution from parameter sweeps.
//
// A record is a flags byte (kind<<1 | taken; the three high bits are
// reserved and must be zero), a presence byte with one bit per field
// (its high bit is reserved), and one varint per present field in
// presence-bit order. An absent field is zero, except that an absent
// Addr on a run, loop, branch, call or return is the predicted next
// PC; the encoder writes a field exactly when it differs from its
// absent value. Consecutive events sit a few instructions apart, so
// addresses are stored as zigzag deltas:
//
//   - Addr from the delta base addr: the predicted next PC (where
//     fetch continues after the last run, loop, branch, call or
//     return), or the address of the last record outside the
//     instruction stream that carried one, data references excepted;
//   - Target from this record's Addr;
//   - CallerStart from the delta base callerStart, the last
//     CallerStart a record carried;
//   - N, Iters, Fn and Caller as plain zigzag varints, which must fit
//     in int32.
//
// Delta arithmetic wraps, so every 64-bit address round-trips.

var (
	traceMagic = [8]byte{'C', 'G', 'P', 'T', 'R', 'C', '0', '2'}
	// v1Magic heads the retired fixed seven-varint format, recognized
	// only to reject it with an error that says what to do.
	v1Magic = [8]byte{'C', 'G', 'P', 'T', 'R', 'C', '0', '1'}
)

// ErrBadMagic is returned when Load is handed a non-trace stream.
var ErrBadMagic = errors.New("trace: bad magic")

// ErrRetiredFormat is returned for a stream in the retired CGPTRC01
// record format, which no reader decodes any more.
var ErrRetiredFormat = errors.New("trace: CGPTRC01 is a retired trace format; re-record the trace")

// ErrMalformed is the decode error for a record that is complete but
// invalid: a kind above KindQueryTag, a reserved bit set, a varint
// that overflows 64 bits, or an int32 field out of range. Decode
// errors wrap it (or io.ErrUnexpectedEOF, for a record cut short)
// with the name of the offending field.
var ErrMalformed = errors.New("trace: malformed record")

// checkMagic validates a stream header.
func checkMagic(hdr []byte) error {
	if len(hdr) < len(traceMagic) {
		return ErrBadMagic
	}
	switch [8]byte(hdr) {
	case traceMagic:
		return nil
	case v1Magic:
		return ErrRetiredFormat
	}
	return ErrBadMagic
}

// Presence bits, in field order.
const (
	hasAddr byte = 1 << iota
	hasTarget
	hasCallerStart
	hasN
	hasIters
	hasFn
	hasCaller
	hasAll = hasCaller<<1 - 1
)

// maxFlags is the largest valid flags byte: KindQueryTag, taken.
const maxFlags = byte(KindQueryTag)<<1 | 1

// maxEventRecord bounds one encoded record: the flags and presence
// bytes plus seven varints.
const maxEventRecord = 2 + 7*binary.MaxVarintLen64

// bases are the codec's delta bases. The encoder and every decoder
// carry them from record to record, and every skip-index checkpoint
// stores them, so a replay can resume decoding mid-stream.
type bases struct {
	addr, callerStart isa.Addr
}

// implied is the Addr a record of kind k has when its Addr is absent:
// the predicted next PC for the instruction stream's kinds, else zero.
func (s *bases) implied(k Kind) isa.Addr {
	if k <= KindReturn {
		return s.addr
	}
	return 0
}

// next advances the addr base past ev. After a run, loop, branch, call
// or return it is where fetch continues; a data reference leaves it
// alone; any other record's nonzero address becomes it.
func (s *bases) next(ev *Event) {
	switch ev.Kind {
	case KindRun, KindLoop:
		s.addr = ev.Addr + isa.Addr(ev.N)*isa.InstrBytes
	case KindBranch:
		s.addr = ev.Addr + isa.InstrBytes
		if ev.Taken {
			s.addr = ev.Target
		}
	case KindCall, KindReturn:
		s.addr = ev.Target
	case KindData:
	default:
		if ev.Addr != 0 {
			s.addr = ev.Addr
		}
	}
}

// writerBuffer is how many encoded bytes a writer holds before handing
// them to its chunk buffer.
const writerBuffer = 1 << 16

// writer encodes events into a chunk buffer. The Recorder is its one
// user, so Recorder and Recording.WriteTo are the one way to write a
// trace file, as Load is the one way to read one.
type writer struct {
	b       *chunkBuffer
	buf     []byte // encoded bytes not yet handed to b
	n       int    // length of the pending prefix of buf
	flushed int64  // bytes already handed to b, header included
	bases   bases
}

// newWriter writes the header and returns an event writer.
func newWriter(b *chunkBuffer) *writer {
	b.Write(traceMagic[:])
	return &writer{b: b, buf: make([]byte, writerBuffer), flushed: int64(len(traceMagic))}
}

// event encodes ev straight into the pending buffer.
//
//cgplint:hotpath
func (tw *writer) event(ev *Event) {
	if len(tw.buf)-tw.n < maxEventRecord {
		tw.flush()
	}
	b := tw.buf[tw.n:]
	flags := byte(ev.Kind) << 1
	if ev.Taken {
		flags |= 1
	}
	b[0] = flags
	var has byte
	pos := 2
	if ev.Addr != tw.bases.implied(ev.Kind) {
		has |= hasAddr
		pos += putZigzag(b[pos:], int64(ev.Addr-tw.bases.addr))
	}
	if ev.Target != 0 {
		has |= hasTarget
		pos += putZigzag(b[pos:], int64(ev.Target-ev.Addr))
	}
	if ev.CallerStart != 0 {
		has |= hasCallerStart
		pos += putZigzag(b[pos:], int64(ev.CallerStart-tw.bases.callerStart))
		tw.bases.callerStart = ev.CallerStart
	}
	if ev.N != 0 {
		has |= hasN
		pos += putZigzag(b[pos:], int64(ev.N))
	}
	if ev.Iters != 0 {
		has |= hasIters
		pos += putZigzag(b[pos:], int64(ev.Iters))
	}
	if ev.Fn != 0 {
		has |= hasFn
		pos += putZigzag(b[pos:], int64(ev.Fn))
	}
	if ev.Caller != 0 {
		has |= hasCaller
		pos += putZigzag(b[pos:], int64(ev.Caller))
	}
	b[1] = has
	tw.n += pos
	tw.bases.next(ev)
}

// putZigzag writes v as a zigzag varint to the front of b and returns
// its length: binary.PutVarint, open-coded so the encoder stays
// provably allocation-free.
func putZigzag(b []byte, v int64) int {
	x := uint64(v<<1) ^ uint64(v>>63)
	i := 0
	for x >= 0x80 {
		b[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	b[i] = byte(x)
	return i + 1
}

// offset returns the stream position of the next record.
func (tw *writer) offset() int64 { return tw.flushed + int64(tw.n) }

// flush hands the pending bytes to the chunk buffer.
//
//cgplint:coldpath one write per writerBuffer bytes of encoded records
func (tw *writer) flush() {
	tw.b.Write(tw.buf[:tw.n])
	tw.flushed += int64(tw.n)
	tw.n = 0
}

// decodeEventInto decodes one record from the front of b into *ev,
// advances the delta bases *s past it, and returns its length. It is
// the one decoder: every replay's chunk decoder and Load's scan call
// it. On success every field of *ev is overwritten, so the caller can
// reuse a dirty buffer slot without zeroing it; on error *ev and *s
// are unspecified.
//
// This is the hottest loop body of the whole simulator (every replayed
// event passes through it), so the varint reads are open-coded
// straight-line: most present fields are small, and the one-byte case
// runs without a function call or loop — a helper carrying the
// binary.Uvarint fallback costs more than the inlining budget allows,
// and a fields loop pays a dispatch switch per field. The multi-byte
// fallback is the standard library decoder.
//
//cgplint:hotpath
func decodeEventInto(b []byte, ev *Event, s *bases) (int, error) {
	if len(b) < 2 {
		return 0, decodeErr("presence", io.ErrUnexpectedEOF)
	}
	flags, has := b[0], b[1]
	if flags > maxFlags {
		return 0, decodeErr("flags", ErrMalformed)
	}
	if has > hasAll {
		return 0, decodeErr("presence", ErrMalformed)
	}
	*ev = Event{Kind: Kind(flags >> 1), Taken: flags&1 != 0}
	pos := 2
	var u uint64
	var n int
	if has&hasAddr != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			u = uint64(b[pos])
			pos++
		} else if u, n = binary.Uvarint(b[pos:]); n <= 0 {
			return 0, varintErr("addr", b[pos:], n)
		} else {
			pos += n
		}
		ev.Addr = s.addr + (isa.Addr(u>>1) ^ -isa.Addr(u&1))
	} else {
		ev.Addr = s.implied(ev.Kind)
	}
	if has&hasTarget != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			u = uint64(b[pos])
			pos++
		} else if u, n = binary.Uvarint(b[pos:]); n <= 0 {
			return 0, varintErr("target", b[pos:], n)
		} else {
			pos += n
		}
		ev.Target = ev.Addr + (isa.Addr(u>>1) ^ -isa.Addr(u&1))
	}
	if has&hasCallerStart != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			u = uint64(b[pos])
			pos++
		} else if u, n = binary.Uvarint(b[pos:]); n <= 0 {
			return 0, varintErr("callerStart", b[pos:], n)
		} else {
			pos += n
		}
		s.callerStart += isa.Addr(u>>1) ^ -isa.Addr(u&1)
		ev.CallerStart = s.callerStart
	}
	var v int64
	if has&hasN != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			x := b[pos]
			v = int64(x>>1) ^ -int64(x&1)
			pos++
		} else if v, n = binary.Varint(b[pos:]); n <= 0 {
			return 0, varintErr("n", b[pos:], n)
		} else {
			pos += n
			if v != int64(int32(v)) {
				return 0, decodeErr("n", ErrMalformed)
			}
		}
		ev.N = int32(v)
	}
	if has&hasIters != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			x := b[pos]
			v = int64(x>>1) ^ -int64(x&1)
			pos++
		} else if v, n = binary.Varint(b[pos:]); n <= 0 {
			return 0, varintErr("iters", b[pos:], n)
		} else {
			pos += n
			if v != int64(int32(v)) {
				return 0, decodeErr("iters", ErrMalformed)
			}
		}
		ev.Iters = int32(v)
	}
	if has&hasFn != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			x := b[pos]
			v = int64(x>>1) ^ -int64(x&1)
			pos++
		} else if v, n = binary.Varint(b[pos:]); n <= 0 {
			return 0, varintErr("fn", b[pos:], n)
		} else {
			pos += n
			if v != int64(int32(v)) {
				return 0, decodeErr("fn", ErrMalformed)
			}
		}
		ev.Fn = program.FuncID(v)
	}
	if has&hasCaller != 0 {
		if pos < len(b) && b[pos] < 0x80 {
			x := b[pos]
			v = int64(x>>1) ^ -int64(x&1)
			pos++
		} else if v, n = binary.Varint(b[pos:]); n <= 0 {
			return 0, varintErr("caller", b[pos:], n)
		} else {
			pos += n
			if v != int64(int32(v)) {
				return 0, decodeErr("caller", ErrMalformed)
			}
		}
		ev.Caller = program.FuncID(v)
	}
	s.next(ev)
	return pos, nil
}

// varintErr classifies a failed varint read of field from b: one that
// runs off the end of fewer than binary.MaxVarintLen64 bytes is cut
// short, anything else overflows. The class therefore depends only on
// the record's own bytes, not on how much of the stream follows.
//
//cgplint:coldpath error construction runs only on corrupt or truncated input, never in steady-state replay
func varintErr(field string, b []byte, n int) error {
	if n == 0 && len(b) < binary.MaxVarintLen64 {
		return decodeErr(field, io.ErrUnexpectedEOF)
	}
	return decodeErr(field, ErrMalformed)
}

// decodeErr wraps cause, io.ErrUnexpectedEOF or ErrMalformed, with the
// name of the field that failed to decode.
//
//cgplint:coldpath error construction runs only on corrupt or truncated input, never in steady-state replay
func decodeErr(field string, cause error) error {
	return fmt.Errorf("trace: decode %s: %w", field, cause)
}
