package faultinject

import "net"

// Connection-level injectors for the serving chaos suite. They follow
// the package's event-counted style: faults fire at exact byte
// offsets (or at offsets derived from a caller-supplied seed), so a
// failing network chaos test reproduces under the same inputs. The
// wrappers are used on the CLIENT side of a test connection to subject
// the server to mid-frame drops and deterministic frame corruption.

// faultConn wraps a net.Conn, counting bytes through Write and
// invoking per-byte-offset hooks. Reads pass through untouched.
type faultConn struct {
	net.Conn
	// beforeWrite, when set, may trim or veto the next write given the
	// absolute offset of its first byte; returning done=true makes the
	// connection close and report io errors from then on.
	beforeWrite func(off int64, p []byte) (allow int, done bool)
	// mutate, when set, may rewrite the outgoing bytes in place given
	// their absolute starting offset.
	mutate  func(off int64, p []byte)
	written int64
	dead    bool
}

// Write implements net.Conn.
func (c *faultConn) Write(p []byte) (int, error) {
	if c.dead {
		return 0, net.ErrClosed
	}
	allow := len(p)
	done := false
	if c.beforeWrite != nil {
		allow, done = c.beforeWrite(c.written, p)
	}
	if allow > len(p) {
		allow = len(p)
	}
	var n int
	var err error
	if allow > 0 {
		if c.mutate != nil {
			buf := make([]byte, allow)
			copy(buf, p[:allow])
			c.mutate(c.written, buf)
			n, err = c.Conn.Write(buf)
		} else {
			n, err = c.Conn.Write(p[:allow])
		}
		c.written += int64(n)
	}
	if err != nil {
		return n, err
	}
	if done {
		c.dead = true
		c.Conn.Close()
		if n < len(p) {
			return n, net.ErrClosed
		}
	}
	return n, nil
}

// DropAfterN returns a conn that transmits exactly n bytes and then
// closes, truncating the write that crosses the boundary — a client
// dying mid-frame. Deterministic: the drop point depends only on n and
// the byte stream, never on timing.
func DropAfterN(c net.Conn, n int64) net.Conn {
	return &faultConn{
		Conn: c,
		beforeWrite: func(off int64, p []byte) (int, bool) {
			rem := n - off
			if rem <= int64(len(p)) {
				if rem < 0 {
					rem = 0
				}
				return int(rem), true
			}
			return len(p), false
		},
	}
}

// CorruptFrame returns a conn that XOR-flips one byte in each
// corruptEvery-byte window of the outgoing stream, at in-window
// offsets derived from seed by the package's fixed LCG — malformed
// frames with reproducible damage. The first window is left intact so
// a protocol handshake (if any) survives and the corruption lands
// mid-conversation.
func CorruptFrame(c net.Conn, seed int64, corruptEvery int64) net.Conn {
	if corruptEvery <= 0 {
		corruptEvery = 64
	}
	return &faultConn{
		Conn: c,
		mutate: func(off int64, p []byte) {
			for i := range p {
				abs := off + int64(i)
				win := abs / corruptEvery
				if win == 0 {
					continue
				}
				// One target offset per window, derived from the seed
				// and window index — stable regardless of how writes
				// are sliced.
				h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(win)*0xBF58476D1CE4E5B9
				h ^= h >> 31
				h *= 0x94D049BB133111EB
				h ^= h >> 29
				if abs%corruptEvery == int64(h%uint64(corruptEvery)) {
					mask := byte(h>>8) | 1
					p[i] ^= mask
				}
			}
		},
	}
}
