package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// tcpPair establishes a session over loopback TCP, whose kernel buffers let
// many frames queue behind one read — what net.Pipe cannot show.
func tcpPair(t *testing.T) (client, server *Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		c, err := Server(raw)
		ch <- res{c, err}
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client, err = Client(raw)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("server handshake: %v", r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

// TestBareHeaderAllocatesNothing: a peer that sends only a length header
// claiming the largest legal frame, and then nothing, must not make the
// reader set aside the claimed size — per inbound session that would be a
// 96 MiB allocation for four bytes of attack.
func TestBareHeaderAllocatesNothing(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	server := &Conn{raw: b}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	readErr := make(chan error, 1)
	go func() {
		_, err := server.ReadMsg()
		readErr <- err
	}()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	if _, err := a.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// A few body bytes, so the reader is past the header and waiting on the
	// frame itself when the heap is measured.
	if _, err := a.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readErr:
		t.Fatalf("ReadMsg returned on an unfinished frame: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reader allocated %d bytes for a bare header claiming %d", grew, MaxFrame)
	}
	a.Close()
	if err := <-readErr; !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("unfinished frame ended with %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestIdleTimeoutReapsSilentSession: a handshaked session that never sends a
// frame fails its reader once the idle bound passes.
func TestIdleTimeoutReapsSilentSession(t *testing.T) {
	_, s := tcpPair(t)
	s.SetReadIdleTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err := s.ReadMsg()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent session: ReadMsg = %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("reaping took %v, want ~50ms", elapsed)
	}
}

// TestIdleTimeoutSparesBusySession: a session whose sender outruns its
// reader for several idle periods is not reaped. Under such a flood the read
// buffer all but never runs dry — every socket read fills it and ends
// mid-frame — so a bound re-armed only on an empty buffer would expire with
// traffic flowing; it is re-armed on every socket read.
func TestIdleTimeoutSparesBusySession(t *testing.T) {
	c, s := tcpPair(t)
	const idle = 100 * time.Millisecond
	s.SetReadIdleTimeout(idle)

	// Sealed ahead of time and written in large pieces, so the kernel always
	// has more than one read's worth. The frame length does not divide the
	// read buffer's.
	const frames = 10_000
	var stream bytes.Buffer
	sealer := &Conn{raw: &streamConn{w: &stream}, send: c.send}
	msg := bytes.Repeat([]byte{0x5a}, 300)
	for i := 0; i < frames; i++ {
		if err := sealer.WriteMsg(msg); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		c.raw.Write(stream.Bytes())
		c.Close()
	}()

	start, read := time.Now(), 0
	for ; ; read++ {
		if _, err := s.ReadMsg(); err != nil {
			if err != io.EOF {
				t.Fatalf("busy session failed after %d frames, %v: %v", read, time.Since(start), err)
			}
			break
		}
		if read%50 == 0 && time.Since(start) < 4*idle {
			// The reader is the slow side: about one socket read per pause,
			// so the buffer runs dry less than once per idle period.
			time.Sleep(5 * time.Millisecond)
		}
	}
	if read != frames {
		t.Errorf("read %d frames of %d", read, frames)
	}
	if time.Since(start) < 4*idle {
		t.Fatalf("stream lasted %v, too short to outlive the %v idle bound", time.Since(start), idle)
	}
}

// countingConn counts the calls WriteMsg makes on the transport.
type countingConn struct {
	net.Conn
	writes, deadlines int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

func (c *countingConn) SetWriteDeadline(time.Time) error {
	c.deadlines++
	return nil
}

// TestOneWritePerFrame: a frame is one Write whatever its size, and without
// a write timeout WriteMsg leaves the transport's deadline alone.
func TestOneWritePerFrame(t *testing.T) {
	cc := &countingConn{}
	c := &Conn{raw: cc, send: testAEAD(t)}
	for _, size := range []int{0, 100, keepWriteBuf, 100_000} {
		if err := c.WriteMsg(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	if cc.writes != 4 || cc.deadlines != 0 {
		t.Errorf("4 frames without a timeout: %d writes, %d deadline calls; want 4 and 0", cc.writes, cc.deadlines)
	}
	if cap(c.wbuf) > keepWriteBuf {
		t.Errorf("retained a %d-byte write buffer, cap is %d", cap(c.wbuf), keepWriteBuf)
	}
	c.SetWriteTimeout(time.Second)
	if err := c.WriteMsg([]byte("bounded")); err != nil {
		t.Fatal(err)
	}
	c.SetWriteTimeout(0) // clears what the bounded write armed, once
	if err := c.WriteMsg([]byte("unbounded")); err != nil {
		t.Fatal(err)
	}
	if cc.writes != 6 || cc.deadlines != 2 {
		t.Errorf("after a bounded and an unbounded frame: %d writes, %d deadline calls; want 6 and 2", cc.writes, cc.deadlines)
	}
}

// TestBufferedFramesReadWithoutAllocating: frames already in the read buffer
// are authenticated in place and handed out with no allocation, and an idle
// session holds no read buffer.
func TestBufferedFramesReadWithoutAllocating(t *testing.T) {
	const frames = 2000
	var stream bytes.Buffer
	w := &Conn{raw: &streamConn{w: &stream}, send: testAEAD(t)}
	msg := bytes.Repeat([]byte{7}, 200)
	for i := 0; i < frames+1; i++ {
		if err := w.WriteMsg(msg); err != nil {
			t.Fatal(err)
		}
	}
	r := &Conn{raw: &streamConn{r: &stream}, recv: testAEAD(t)}
	if _, err := r.ReadMsg(); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(frames-1, func() {
		if got, err := r.ReadMsg(); err != nil || len(got) != len(msg) {
			t.Fatalf("ReadMsg = %d bytes, %v", len(got), err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per buffered frame, want 0", allocs)
	}
	if _, err := r.ReadMsg(); err != io.EOF {
		t.Fatalf("drained stream: %v, want io.EOF", err)
	}
	if r.buf != nil || r.pooled != nil {
		t.Error("a session with nothing unread still holds a read buffer")
	}
}
