package faultinject

import (
	"bytes"
	"net"
	"testing"
)

// pipePair returns a connected pipe and a channel yielding everything
// the far end receives until EOF.
func pipePair(t *testing.T) (net.Conn, <-chan []byte) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	got := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		tmp := make([]byte, 256)
		for {
			n, err := b.Read(tmp)
			buf.Write(tmp[:n])
			if err != nil {
				got <- buf.Bytes()
				return
			}
		}
	}()
	return a, got
}

func TestDropAfterN(t *testing.T) {
	a, got := pipePair(t)
	c := DropAfterN(a, 10)
	payload := []byte("0123456789abcdef")
	n, err := c.Write(payload)
	if n != 10 {
		t.Fatalf("crossing write passed %d bytes, want 10 (err %v)", n, err)
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after drop point succeeded, want error")
	}
	if rx := <-got; !bytes.Equal(rx, payload[:10]) {
		t.Fatalf("far end received %q, want %q", rx, payload[:10])
	}
}

func TestDropAfterNExactBoundary(t *testing.T) {
	a, got := pipePair(t)
	c := DropAfterN(a, 4)
	if n, err := c.Write([]byte("abcd")); n != 4 || err != nil {
		t.Fatalf("boundary write = (%d, %v), want (4, nil)", n, err)
	}
	if _, err := c.Write([]byte("e")); err == nil {
		t.Fatal("write after exact boundary succeeded, want error")
	}
	if rx := <-got; string(rx) != "abcd" {
		t.Fatalf("far end received %q, want abcd", rx)
	}
}

func TestCorruptFrameDeterministic(t *testing.T) {
	run := func() []byte {
		a, got := pipePair(t)
		c := CorruptFrame(a, 7, 16)
		msg := bytes.Repeat([]byte("abcdefgh"), 8) // 64 bytes, 4 windows
		// Slice the writes unevenly: corruption offsets must not
		// depend on write boundaries.
		for _, cut := range [][2]int{{0, 5}, {5, 23}, {23, 64}} {
			if _, err := c.Write(msg[cut[0]:cut[1]]); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		return <-got
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Fatalf("corruption not deterministic:\n%x\n%x", first, second)
	}
	clean := bytes.Repeat([]byte("abcdefgh"), 8)
	if bytes.Equal(first, clean) {
		t.Fatal("stream not corrupted at all")
	}
	if !bytes.Equal(first[:16], clean[:16]) {
		t.Fatal("first window was corrupted; it must stay intact")
	}
	diff := 0
	for i := range first {
		if first[i] != clean[i] {
			diff++
		}
	}
	if diff != 3 { // windows 1..3 each flip exactly one byte
		t.Fatalf("corrupted %d bytes, want 3", diff)
	}
}
