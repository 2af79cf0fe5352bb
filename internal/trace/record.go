package trace

import (
	"fmt"
	"io"
)

// Record/replay: capture a workload's event stream once, in memory, and
// replay it into any number of simulator configurations. The stream for
// a given (workload, image) pair is deterministic and independent of
// the microarchitectural configuration, so the expensive part of a run
// — executing the database engine or the CPU2000 generators — need not
// be repeated per configuration. This is the same decoupling the
// paper's SimpleScalar setup gets from trace-driven simulation.
//
// The recording uses the binary codec of codec.go, so a recorded event
// stream is byte-compatible with the on-disk trace format, and is
// stored in fixed-size chunks: appending never copies already-recorded
// data, and replay streams chunk by chunk without materializing
// decoded events.

// recordChunkBytes is the default chunk size (1 MiB): large enough to
// amortize allocation, small enough that a short trace wastes little.
const recordChunkBytes = 1 << 20

// chunkBuffer is an append-only byte buffer split into fixed-capacity
// chunks. The trace writer and Load fill it; readers are created per
// replay and stream the chunks independently.
type chunkBuffer struct {
	chunks    [][]byte
	size      int64
	chunkSize int
}

func newChunkBuffer(chunkSize int) *chunkBuffer {
	if chunkSize <= 0 {
		chunkSize = recordChunkBytes
	}
	return &chunkBuffer{chunkSize: chunkSize}
}

// Write implements io.Writer, spreading p across chunk boundaries. It
// never fails.
func (b *chunkBuffer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(b.chunks) == 0 || len(b.chunks[len(b.chunks)-1]) == b.chunkSize {
			b.chunks = append(b.chunks, make([]byte, 0, b.chunkSize))
		}
		last := &b.chunks[len(b.chunks)-1]
		free := b.chunkSize - len(*last)
		if free > len(p) {
			free = len(p)
		}
		*last = append(*last, p[:free]...)
		p = p[free:]
	}
	b.size += int64(n)
	return n, nil
}

// chunkReader streams a chunkBuffer. Each reader carries its own
// position, so concurrent replays of one recording are independent.
type chunkReader struct {
	b   *chunkBuffer
	i   int // current chunk
	off int // offset within chunk i
}

// Read implements io.Reader.
func (r *chunkReader) Read(p []byte) (int, error) {
	for r.i < len(r.b.chunks) && r.off == len(r.b.chunks[r.i]) {
		r.i++
		r.off = 0
	}
	if r.i >= len(r.b.chunks) {
		return 0, io.EOF
	}
	n := copy(p, r.b.chunks[r.i][r.off:])
	r.off += n
	return n, nil
}

// Recorder is a Consumer that captures an event stream into a compact
// chunked buffer using the binary trace codec. It simultaneously
// accumulates the stream's aggregate Stats so replays can copy them
// instead of recounting, and the skip index sampled replays jump by.
// With Recording.WriteTo it is the one way to write a trace file.
type Recorder struct {
	buf   *chunkBuffer
	w     *writer
	stats Stats
	idx   []skipPoint
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return newRecorder(recordChunkBytes) }

func newRecorder(chunkSize int) *Recorder {
	buf := newChunkBuffer(chunkSize)
	return &Recorder{buf: buf, w: newWriter(buf)}
}

// EventBatch implements Consumer. It encodes and counts the batch a
// part at a time, splitting it at skip-index checkpoints, so each
// checkpoint holds the exact counts of the events before it.
//
//cgplint:hotpath
func (r *Recorder) EventBatch(evs []Event) {
	for len(evs) > 0 {
		part := evs[:min(len(evs), skipIndexEvery-int(r.stats.Events%skipIndexEvery))]
		for i := range part {
			r.w.event(&part[i])
		}
		r.stats.EventBatch(part)
		if r.stats.Events%skipIndexEvery == 0 {
			r.checkpoint()
		}
		evs = evs[len(part):]
	}
}

// checkpoint appends a skip-index checkpoint at the writer's current
// position: the state a decoder has after the events recorded so far.
//
//cgplint:coldpath one amortized append per skipIndexEvery recorded events
func (r *Recorder) checkpoint() {
	r.idx = append(r.idx, skipPoint{pos: r.w.offset(), bases: r.w.bases,
		events: r.stats.Events, instrs: int64(r.stats.Instructions)})
}

// Finish flushes buffered output and seals the recording: the chunk
// list is frozen and per-chunk CRC-32C checksums are computed, so every
// later replay can verify integrity before decoding. The Recorder must
// not be used afterwards. Recording into memory cannot fail, so the
// error is always nil.
func (r *Recorder) Finish() (*Recording, error) {
	r.w.flush()
	return &Recording{
		buf:     r.buf,
		Stats:   r.stats,
		version: RecordingVersion,
		sums:    sealChecksums(r.buf),
		idx:     r.idx,
	}, nil
}

// Recording is a sealed recorded trace. It is immutable and safe for
// concurrent replay from multiple goroutines.
type Recording struct {
	buf *chunkBuffer
	// version and sums are the integrity framing (see integrity.go):
	// the format version and one CRC-32C per chunk, sealed by Finish.
	version int
	sums    []uint32
	// Stats are the aggregate statistics of the recorded stream,
	// identical to what a Stats consumer fed by Replay would count.
	Stats Stats
	// idx is the skip index ReplaySampled jumps by (see sample.go),
	// built by the Recorder or by Load's decode pass. It lives only in
	// memory; the encoded stream is the on-disk format.
	idx []skipPoint
}

// Events returns the number of recorded events.
func (r *Recording) Events() int64 { return r.Stats.Events }

// Bytes returns the in-memory footprint of the encoded trace.
func (r *Recording) Bytes() int64 { return r.buf.size }

// replayBatch is how many decoded events one dispatch hands over. The
// buffer (≈ 24 KiB) stays comfortably cache-resident while amortizing
// the dynamic dispatch per batch to noise.
const replayBatch = 512

// Replay feeds the recorded events to c in recording order, a batch of
// replayBatch at a time. Replay allocates a fixed per-call setup cost
// (the dispatch closure here, the batch buffer in ReplaySampled) and
// nothing per event — TestReplayAllocsIndependentOfLength pins the
// runtime side of what allocfree verifies statically.
//
//cgplint:hotpath
func (r *Recording) Replay(c Consumer) error {
	return r.ReplayBatch(func(evs []Event) error { //cgplint:ignore allocfree one dispatch closure per Replay call, amortized across the whole stream
		c.EventBatch(evs)
		return nil
	})
}

// ReplayBatch is a full replay: ReplaySampled over the whole-stream
// plan, handing fn every decoded event in batches of replayBatch (the
// final one partial) and nothing else. fn must not retain the slice. A
// non-nil error from fn aborts the replay immediately and is returned
// as-is (the runner uses this for prompt cancellation at batch
// granularity).
//
// Before decoding, the chunk checksums sealed at record time are
// re-verified; a corrupted recording fails with *CorruptionError
// instead of handing decoded garbage to the consumers.
//
//cgplint:hotpath
func (r *Recording) ReplayBatch(fn func(evs []Event) error) error {
	return r.ReplaySampled(nil, nil, fn, nil) //cgplint:ignore allocfree fn is the caller's own callback, passed through; the whole-stream plan calls neither nil span hook
}

// decoder returns a decoder positioned just past the stream's magic
// header, or the header's error.
func (r *Recording) decoder() (chunkDecoder, error) {
	d := chunkDecoder{b: r.buf}
	if err := checkMagic(d.window(len(traceMagic))); err != nil {
		return d, err
	}
	d.advance(len(traceMagic))
	return d, nil
}

// fill is the one decode loop of every replay: it decodes events into
// buf until buf is full or the stream ends, and returns how many it
// decoded. The varints are decoded directly from the chunk slices: an
// interface-dispatched ReadByte per varint byte would cost as much as
// the simulation consuming the events.
//
//cgplint:hotpath
func (d *chunkDecoder) fill(buf []Event) (int, error) {
	n := 0
	for n < len(buf) {
		// Fast path: decode records lying wholly inside the current
		// chunk without per-event window/advance bookkeeping.
		if d.ci < len(d.b.chunks) {
			chunk := d.b.chunks[d.ci]
			pos := d.off
			for pos+maxEventRecord <= len(chunk) && n < len(buf) {
				m, err := decodeEventInto(chunk[pos:], &buf[n], &d.bases)
				if err != nil {
					return n, err
				}
				pos += m
				n++
			}
			d.off = pos
			if n == len(buf) {
				break
			}
		}
		// Slow path: a record straddling a chunk boundary, or the tail
		// of the final chunk.
		w := d.window(maxEventRecord)
		if len(w) == 0 {
			break
		}
		m, err := decodeEventInto(w, &buf[n], &d.bases)
		if err != nil {
			return n, err
		}
		d.advance(m)
		n++
	}
	return n, nil
}

// chunkDecoder walks a chunkBuffer as one logical byte stream,
// assembling chunk-straddling records into a scratch buffer. Each
// decoder carries its own position and delta bases, so concurrent
// replays of one recording are independent.
type chunkDecoder struct {
	b       *chunkBuffer
	ci      int // current chunk
	off     int // offset within chunk ci
	bases   bases
	scratch [maxEventRecord]byte
}

// pos returns the decoder's stream position. Every chunk but the last
// is full, so the position maps to (chunk, offset) and back.
func (d *chunkDecoder) pos() int64 {
	return int64(d.ci)*int64(d.b.chunkSize) + int64(d.off)
}

// seek resumes decoding at checkpoint p.
func (d *chunkDecoder) seek(p skipPoint) {
	d.ci, d.off = int(p.pos/int64(d.b.chunkSize)), int(p.pos%int64(d.b.chunkSize))
	d.bases = p.bases
}

// window returns at least min(n, bytes remaining) contiguous bytes at
// the current position without consuming them; advance moves past the
// bytes actually decoded. The common case — a whole record inside one
// chunk — returns a subslice with no copy.
func (d *chunkDecoder) window(n int) []byte {
	for d.ci < len(d.b.chunks) && d.off == len(d.b.chunks[d.ci]) {
		d.ci++
		d.off = 0
	}
	if d.ci >= len(d.b.chunks) {
		return nil
	}
	cur := d.b.chunks[d.ci][d.off:]
	if len(cur) >= n || d.ci == len(d.b.chunks)-1 {
		return cur
	}
	m := copy(d.scratch[:n], cur)
	for i := d.ci + 1; i < len(d.b.chunks) && m < n; i++ {
		m += copy(d.scratch[m:n], d.b.chunks[i])
	}
	return d.scratch[:m]
}

func (d *chunkDecoder) advance(n int) {
	for n > 0 {
		rest := len(d.b.chunks[d.ci]) - d.off
		if n < rest {
			d.off += n
			return
		}
		n -= rest
		d.ci++
		d.off = 0
	}
}

// Load reads an entire encoded trace stream (the cgptrace on-disk
// format, header included) into a sealed Recording. It is the one way
// to read a trace file, so file-backed traces get the same replay
// machinery as in-memory ones, sampled replay included. The stream is
// decoded once to rebuild the aggregate Stats and the skip index a
// Recorder would have built; a malformed record fails the load.
func Load(src io.Reader) (*Recording, error) {
	buf := newChunkBuffer(recordChunkBytes)
	if _, err := io.Copy(buf, src); err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	rec := &Recording{buf: buf, version: RecordingVersion, sums: sealChecksums(buf)}
	var err error
	if rec.Stats, rec.idx, err = rec.scan(); err != nil {
		return nil, err
	}
	return rec, nil
}

// WriteTo copies the raw encoded trace (header included) to w, so a
// recording can be saved in the cgptrace on-disk format.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, chunk := range r.buf.chunks {
		n, err := w.Write(chunk)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
