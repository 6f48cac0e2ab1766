// Package session provides the encrypted peer-to-peer transport session for
// the real LOCKSS node: an anonymous Diffie-Hellman key exchange (X25519)
// followed by AES-GCM framing, mirroring the paper's "encrypted TLS session
// ... via an anonymous Diffie-Hellman key exchange". No long-term secrets or
// certificate infrastructure are required — by design, the system avoids
// relying on secrets that must stay safe for decades; peer identity is
// ostensible and the protocol's defenses do not depend on it.
package session

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrame bounds the size of a single message frame.
const MaxFrame = 96 << 20

// readBufSize is the pooled inbound buffer: one socket read delivers up to
// this many bytes of back-to-back frames. Only sessions with unread bytes hold
// one, so a node's idle sessions cost no buffer memory.
const readBufSize = 16 << 10

// keepWriteBuf caps the seal buffer a Conn retains between writes; larger
// frames seal into a buffer that is dropped after the write.
const keepWriteBuf = 1 << 10

var readBufs = sync.Pool{New: func() any { b := make([]byte, readBufSize); return &b }}

// Conn is an established encrypted session over a reliable byte stream.
//
// WriteMsg is safe for concurrent use: a write mutex serializes the nonce
// counter, the seal and the stream write, so interleaved callers can never
// desynchronize the GCM nonce sequence from the byte stream. ReadMsg must
// still be called from a single goroutine (one reader owns the inbound half).
type Conn struct {
	raw  net.Conn
	send cipher.AEAD
	recv cipher.AEAD

	// wmu guards sendCtr, writeTimeout, wbuf and the framing write.
	wmu          sync.Mutex
	sendCtr      counter
	writeTimeout time.Duration
	wbuf         []byte // retained seal buffer, cap <= keepWriteBuf

	// readIdle, when set, bounds how long ReadMsg waits on the socket. Set
	// it before the first ReadMsg (it is read without a lock by the reader
	// goroutine).
	readIdle time.Duration

	// The inbound half, owned by the reader goroutine. buf[r:w] holds bytes
	// received and not yet returned as frames. buf is a pooled buffer
	// (pooled != nil), a larger one grown for a single frame that did not fit
	// (it then starts at r == 0 and ends exactly at the frame's end), or nil
	// when nothing is unread.
	recvCtr counter
	buf     []byte
	pooled  *[]byte
	r, w    int
	hdr     [4]byte
}

// deriveAEAD builds an AES-256-GCM AEAD from the shared secret and a
// direction label.
func deriveAEAD(shared []byte, label string) (cipher.AEAD, error) {
	h := sha256.New()
	h.Write([]byte("lockss/session/v1/"))
	h.Write([]byte(label))
	h.Write(shared)
	block, err := aes.NewCipher(h.Sum(nil))
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// handshake runs the anonymous X25519 exchange. The initiator's key travels
// first; directional keys are derived from the shared secret.
func handshake(raw net.Conn, initiator bool) (*Conn, error) {
	key, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("session: keygen: %w", err)
	}
	mine := key.PublicKey().Bytes()
	theirs := make([]byte, len(mine))
	if initiator {
		if _, err := raw.Write(mine); err != nil {
			return nil, fmt.Errorf("session: send key: %w", err)
		}
		if _, err := io.ReadFull(raw, theirs); err != nil {
			return nil, fmt.Errorf("session: recv key: %w", err)
		}
	} else {
		if _, err := io.ReadFull(raw, theirs); err != nil {
			return nil, fmt.Errorf("session: recv key: %w", err)
		}
		if _, err := raw.Write(mine); err != nil {
			return nil, fmt.Errorf("session: send key: %w", err)
		}
	}
	peerKey, err := ecdh.X25519().NewPublicKey(theirs)
	if err != nil {
		return nil, fmt.Errorf("session: peer key: %w", err)
	}
	shared, err := key.ECDH(peerKey)
	if err != nil {
		return nil, fmt.Errorf("session: ecdh: %w", err)
	}
	c2s, err := deriveAEAD(shared, "c2s")
	if err != nil {
		return nil, err
	}
	s2c, err := deriveAEAD(shared, "s2c")
	if err != nil {
		return nil, err
	}
	c := &Conn{raw: raw}
	if initiator {
		c.send, c.recv = c2s, s2c
	} else {
		c.send, c.recv = s2c, c2s
	}
	return c, nil
}

// Client establishes a session as the initiating side.
func Client(raw net.Conn) (*Conn, error) { return handshake(raw, true) }

// Server establishes a session as the accepting side.
func Server(raw net.Conn) (*Conn, error) { return handshake(raw, false) }

// counter numbers one direction's frames and derives each frame's 12-byte
// GCM nonce: never repeating within a session, which is all GCM requires.
// The nonce lives here, in the Conn, so that handing it to the AEAD
// allocates nothing.
type counter struct {
	n   uint64
	buf [12]byte
}

// nonce returns frame n's nonce, valid until the next call.
func (c *counter) nonce() []byte {
	binary.BigEndian.PutUint64(c.buf[4:], c.n)
	return c.buf[:]
}

// SetWriteTimeout bounds every subsequent WriteMsg: a frame that cannot be
// flushed within d (a remote that stopped reading, with full TCP buffers —
// the paper's pipe-stoppage adversary) fails instead of blocking the writer
// forever. Zero disables the bound.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.wmu.Lock()
	if d <= 0 && c.writeTimeout > 0 {
		c.raw.SetWriteDeadline(time.Time{}) // clear the bound the last write armed
	}
	c.writeTimeout = d
	c.wmu.Unlock()
}

// WriteMsg encrypts and frames one message and hands it to the transport in
// one Write. Safe for concurrent use. An error means the session is dead —
// the nonce counter may have advanced past a partially written frame — and
// the Conn must be closed, not retried.
func (c *Conn) WriteMsg(plaintext []byte) error {
	if len(plaintext) > MaxFrame {
		return fmt.Errorf("session: frame of %d bytes exceeds limit", len(plaintext))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.writeTimeout > 0 {
		c.raw.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	frame := binary.BigEndian.AppendUint32(c.wbuf[:0], uint32(len(plaintext)+c.send.Overhead()))
	frame = c.send.Seal(frame, c.sendCtr.nonce(), plaintext, nil)
	c.sendCtr.n++
	if cap(frame) <= keepWriteBuf {
		c.wbuf = frame[:0]
	}
	_, err := c.raw.Write(frame)
	return err
}

// SetReadIdleTimeout bounds how long ReadMsg waits for bytes on the socket,
// so an established session that goes silent can be reaped instead of
// holding resources forever; a session that keeps delivering bytes is never
// reaped by it. Must be called before the first ReadMsg; zero (the default)
// disables the bound.
func (c *Conn) SetReadIdleTimeout(d time.Duration) { c.readIdle = d }

// ReadMsg returns the next decrypted message. The returned slice aliases the
// session's read buffer and is valid only until the next ReadMsg. It must be
// called from a single goroutine; any error means the session is dead.
//
// One socket read delivers as many frames as the kernel has, into a pooled
// buffer that is handed back once drained; every frame is still
// authenticated by AES-GCM in counter order before it is returned.
func (c *Conn) ReadMsg() ([]byte, error) {
	for {
		need := len(c.hdr)
		if c.w-c.r >= need {
			n := binary.BigEndian.Uint32(c.buf[c.r:])
			if n > MaxFrame {
				return nil, errors.New("session: oversized frame")
			}
			need += int(n)
			if c.w-c.r >= need {
				sealed := c.buf[c.r+len(c.hdr) : c.r+need]
				plain, err := c.recv.Open(sealed[:0], c.recvCtr.nonce(), sealed, nil)
				if err != nil {
					// Neither the counter nor r moves on: the session stays
					// failed for a caller that reads again.
					return nil, fmt.Errorf("session: decrypt: %w", err)
				}
				c.r += need
				c.recvCtr.n++
				return plain, nil
			}
		}
		if err := c.fill(need); err != nil {
			return nil, err
		}
	}
}

// fill brings in more bytes of the frame at buf[r:], which needs need bytes
// in all and has fewer. Buffer space never runs ahead of the bytes actually
// received: a frame longer than the pooled buffer grows its own by doubling,
// capped at need, so a bare header claiming MaxFrame costs its sender's
// victim nothing.
func (c *Conn) fill(need int) error {
	unread := c.w - c.r
	if unread == 0 {
		// Drained: give the buffer back and wait for the next header without
		// one, so only sessions with traffic in flight hold read buffers.
		c.releaseBuf()
		c.armIdle()
		if _, err := io.ReadFull(c.raw, c.hdr[:]); err != nil {
			return err
		}
		c.pooled = readBufs.Get().(*[]byte)
		c.buf = *c.pooled
		c.r, c.w = 0, copy(c.buf, c.hdr[:])
		return nil
	}
	if c.r > 0 {
		copy(c.buf, c.buf[c.r:c.w])
		c.r, c.w = 0, unread
	}
	if c.w == len(c.buf) {
		grown := make([]byte, min(2*len(c.buf), need))
		copy(grown, c.buf)
		c.releaseBuf()
		c.buf, c.w = grown, unread
	}
	c.armIdle()
	n, err := c.raw.Read(c.buf[c.w:])
	c.w += n
	if n > 0 {
		return nil // any error resurfaces on the next read
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // mid-frame
	}
	return err
}

// armIdle restarts the idle bound; called before every socket read, so what
// it bounds is silence on the wire, never the time spent on buffered frames.
func (c *Conn) armIdle() {
	if c.readIdle > 0 {
		c.raw.SetReadDeadline(time.Now().Add(c.readIdle))
	}
}

// releaseBuf drops the read buffer, returning a pooled one to the pool.
func (c *Conn) releaseBuf() {
	if c.pooled != nil {
		readBufs.Put(c.pooled)
		c.pooled = nil
	}
	c.buf, c.r, c.w = nil, 0, 0
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.raw.Close() }
