package session

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"io"
	"net"
	"testing"
	"time"
)

// testAEAD is a fixed-key AEAD for tests that build one half of a session
// by hand.
func testAEAD(tb testing.TB) cipher.AEAD {
	tb.Helper()
	a, err := deriveAEAD([]byte("a shared secret for tests only"), "test")
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// streamConn is a transport made of a reader or a writer, without deadlines.
type streamConn struct {
	net.Conn
	r io.Reader
	w io.Writer
}

func (c *streamConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *streamConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (c *streamConn) SetWriteDeadline(time.Time) error { return nil }

// chunkReader delivers data in pieces whose sizes follow cuts, cycling: the
// arbitrary boundaries at which a TCP stream hands bytes to its reader.
type chunkReader struct {
	data []byte
	cuts []byte
	i    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.cuts) > 0 {
		cut := c.cuts[c.i%len(c.cuts)]
		c.i++
		if cut < 250 {
			n = min(n, int(cut)+1)
		} // else: as much as the caller has room for
	}
	n = copy(p[:n], c.data)
	c.data = c.data[n:]
	return n, nil
}

// FuzzReadMsgChunks: a sealed frame stream delivered in arbitrary pieces
// yields exactly the plaintexts that were sealed, in order; and a stream that
// is truncated, has a bit flipped, or announces an oversized frame yields
// every frame before the damage, then an error, and no frame ever after.
func FuzzReadMsgChunks(f *testing.F) {
	f.Add([]byte{5, 0, 100}, []byte{}, uint8(0), uint32(0))
	f.Add([]byte{5, 0, 100, 255, 30}, []byte{0}, uint8(0), uint32(0))        // byte at a time, one 64 KiB frame
	f.Add([]byte{200, 200, 1, 230}, []byte{3, 255, 17}, uint8(0), uint32(0)) // frames larger than the pooled buffer
	f.Add([]byte{40, 40, 40, 40}, []byte{19}, uint8(1), uint32(70))          // truncated mid-frame
	f.Add([]byte{40, 40, 40, 40}, []byte{255}, uint8(1), uint32(2))          // truncated mid-header
	f.Add([]byte{40, 210, 40}, []byte{7, 250}, uint8(2), uint32(100))        // bit flipped in a body
	f.Add([]byte{40, 40}, []byte{255}, uint8(2), uint32(1))                  // bit flipped in a length
	f.Add([]byte{9, 9, 9}, []byte{2}, uint8(3), uint32(2))                   // oversized announcement

	f.Fuzz(func(t *testing.T, sizes, cuts []byte, damage uint8, at uint32) {
		if len(sizes) > 48 {
			sizes = sizes[:48]
		}
		var stream bytes.Buffer
		w := &Conn{raw: &streamConn{w: &stream}, send: testAEAD(t)}
		msgs := make([][]byte, len(sizes))
		ends := make([]int, len(sizes)) // stream offset just past each frame
		for i, b := range sizes {
			n := int(b)
			if b >= 192 {
				n = (int(b) - 191) * 1031 // up to ~64 KiB: several doublings
			}
			msgs[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
			if err := w.WriteMsg(msgs[i]); err != nil {
				t.Fatal(err)
			}
			ends[i] = stream.Len()
		}
		data := stream.Bytes()
		intactBefore := func(off int) (k int) {
			for k < len(ends) && ends[k] <= off {
				k++
			}
			return k
		}
		intact := len(msgs)
		switch damage % 4 {
		case 1: // truncated
			cut := int(at) % (len(data) + 1)
			data, intact = data[:cut], intactBefore(cut)
		case 2: // one bit flipped
			if len(data) > 0 {
				pos := int(at) % len(data)
				data[pos] ^= 1 << (at >> 29)
				intact = intactBefore(pos)
			}
		case 3: // a length beyond MaxFrame where a frame should start
			intact = int(at) % (len(msgs) + 1)
			start := 0
			if intact > 0 {
				start = ends[intact-1]
			}
			data = binary.BigEndian.AppendUint32(data[:start:start], MaxFrame+1)
			data = append(data, "whatever follows"...)
		}

		r := &Conn{raw: &streamConn{r: &chunkReader{data: data, cuts: cuts}}, recv: testAEAD(t)}
		for i := 0; i < intact; i++ {
			got, err := r.ReadMsg()
			if err != nil {
				t.Fatalf("frame %d of %d intact: %v", i, intact, err)
			}
			if !bytes.Equal(got, msgs[i]) {
				t.Fatalf("frame %d: got %d bytes, want %d of 0x%02x", i, len(got), len(msgs[i]), byte(i+1))
			}
		}
		_, err := r.ReadMsg()
		if err == nil {
			t.Fatalf("a frame came out of the stream after its %d intact ones", intact)
		}
		if intact == len(msgs) && damage%4 != 3 && err != io.EOF {
			t.Fatalf("clean end of stream: %v, want io.EOF", err)
		}
		if _, err := r.ReadMsg(); err == nil {
			t.Fatal("a failed session yielded a frame on the next read")
		}
	})
}

// lowOrderKeys are the encodings of the X25519 public keys of small order,
// each also with its ignored top bit set: Diffie-Hellman with any of them
// yields the all-zero secret whatever the private key.
var lowOrderKeys = func() [][]byte {
	var keys [][]byte
	for _, h := range []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"0100000000000000000000000000000000000000000000000000000000000000",
		"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
		"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	} {
		k, err := hex.DecodeString(h)
		if err != nil {
			panic(err)
		}
		high := bytes.Clone(k)
		high[31] |= 0x80
		keys = append(keys, k, high)
	}
	return keys
}()

// FuzzServerHandshake: whatever a client sends — a key, then frames — the
// accepting side's handshake never panics and returns either an error or a
// session. A key shorter than 32 bytes is an error, a low-order key is
// refused, and no frame after an accepted key ever decrypts: the session key
// depends on the server's fresh private key, which no input can know.
func FuzzServerHandshake(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{9}, 31))
	for _, k := range lowOrderKeys {
		f.Add(k)
	}
	// The base point, a valid public key, then a frame sealed under a key
	// the server does not hold.
	var stream bytes.Buffer
	stream.Write(append([]byte{9}, make([]byte, 31)...))
	forger := &Conn{raw: &streamConn{w: &stream}, send: testAEAD(f)}
	if err := forger.WriteMsg([]byte("forged")); err != nil {
		f.Fatal(err)
	}
	f.Add(stream.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var sent bytes.Buffer
		c, err := Server(&streamConn{r: bytes.NewReader(data), w: &sent})
		if (c == nil) == (err == nil) {
			t.Fatalf("handshake returned session %v and error %v", c, err)
		}
		if len(data) < 32 {
			if err == nil {
				t.Fatalf("a %d-byte key was accepted", len(data))
			}
			return
		}
		for _, k := range lowOrderKeys {
			if bytes.Equal(data[:32], k) && err == nil {
				t.Fatalf("low-order key %x was accepted", k)
			}
		}
		if err != nil {
			return
		}
		if sent.Len() != 32 {
			t.Fatalf("server sent %d bytes for its key, want 32", sent.Len())
		}
		for range 2 {
			if msg, err := c.ReadMsg(); err == nil {
				t.Fatalf("a frame from a client without the key decrypted to %q", msg)
			}
		}
	})
}
