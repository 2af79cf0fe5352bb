package refsim

import (
	"encoding/binary"
	"fmt"
	"io"

	"cgp/internal/isa"
	"cgp/internal/program"
	"cgp/internal/trace"
)

// v1Magic heads the fixed seven-varint record format the frozen
// decoder reads.
var v1Magic = [8]byte{'C', 'G', 'P', 'T', 'R', 'C', '0', '1'}

// Consumer is the frozen per-event consumer interface Replay dispatches
// through. It is refsim's own: the live trace.Consumer takes batches.
type Consumer interface {
	Event(ev trace.Event)
}

// Replay is the frozen pre-optimization replay loop: per-event Consumer
// dispatch and a decoder that calls binary.Varint for every signed
// field (the live trace.Recording decoder batches dispatch and inlines
// the common single-byte varint case). It reads a trace in the
// original fixed seven-varint format (header included) from a flat
// byte slice — obtain one with EncodeV1 — which matches the old
// chunked fast path, since a 1 MiB chunk kept virtually every record
// on the contiguous branch.
//
// Keeping the old decode loop here, next to the old CPU kernel, is what
// makes the benchmark baseline honest: the kernel benchmarks and the
// root package's TestKernelThroughputGuard measure the speedup against
// the whole pre-change replay→CPU path, not against a baseline that
// quietly inherits the new decoder or record format.
func Replay(raw []byte, c Consumer) error {
	if len(raw) < len(v1Magic) || [8]byte(raw[:8]) != v1Magic {
		return trace.ErrBadMagic
	}
	pos := len(v1Magic)
	for pos < len(raw) {
		ev, n, err := decodeEvent(raw[pos:])
		if err != nil {
			return err
		}
		pos += n
		c.Event(ev)
	}
	return nil
}

// EncodeV1 re-encodes a recording in the original fixed seven-varint
// record format, for Replay. It is the frozen copy of the
// pre-optimization trace encoder: a flags byte, then Addr, Target and
// CallerStart as uvarints and N, Iters, Fn and Caller as varints.
func EncodeV1(rec *trace.Recording) ([]byte, error) {
	// ~12.5 bytes/event is what the format measured on the workloads.
	raw := append(make([]byte, 0, 13*rec.Events()+int64(len(v1Magic))), v1Magic[:]...)
	err := rec.ReplayBatch(func(evs []trace.Event) error {
		for _, ev := range evs {
			flags := byte(ev.Kind) << 1
			if ev.Taken {
				flags |= 1
			}
			raw = append(raw, flags)
			raw = binary.AppendUvarint(raw, uint64(ev.Addr))
			raw = binary.AppendUvarint(raw, uint64(ev.Target))
			raw = binary.AppendUvarint(raw, uint64(ev.CallerStart))
			raw = binary.AppendVarint(raw, int64(ev.N))
			raw = binary.AppendVarint(raw, int64(ev.Iters))
			raw = binary.AppendVarint(raw, int64(ev.Fn))
			raw = binary.AppendVarint(raw, int64(ev.Caller))
		}
		return nil
	})
	return raw, err
}

// decodeEvent is the frozen copy of the pre-optimization trace decoder.
func decodeEvent(b []byte) (trace.Event, int, error) {
	var ev trace.Event
	flags := b[0]
	ev.Kind = trace.Kind(flags >> 1)
	ev.Taken = flags&1 != 0
	pos := 1
	u, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return ev, 0, decodeErr("addr")
	}
	pos += n
	ev.Addr = isa.Addr(u)
	if u, n = binary.Uvarint(b[pos:]); n <= 0 {
		return ev, 0, decodeErr("target")
	}
	pos += n
	ev.Target = isa.Addr(u)
	if u, n = binary.Uvarint(b[pos:]); n <= 0 {
		return ev, 0, decodeErr("callerStart")
	}
	pos += n
	ev.CallerStart = isa.Addr(u)
	v, n := binary.Varint(b[pos:])
	if n <= 0 {
		return ev, 0, decodeErr("n")
	}
	pos += n
	ev.N = int32(v)
	if v, n = binary.Varint(b[pos:]); n <= 0 {
		return ev, 0, decodeErr("iters")
	}
	pos += n
	ev.Iters = int32(v)
	if v, n = binary.Varint(b[pos:]); n <= 0 {
		return ev, 0, decodeErr("fn")
	}
	pos += n
	ev.Fn = program.FuncID(v)
	if v, n = binary.Varint(b[pos:]); n <= 0 {
		return ev, 0, decodeErr("caller")
	}
	pos += n
	ev.Caller = program.FuncID(v)
	return ev, pos, nil
}

func decodeErr(field string) error {
	return fmt.Errorf("refsim: decode %s: %w", field, io.ErrUnexpectedEOF)
}
