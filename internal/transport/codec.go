// Wire framing for the TCP transport.
//
// Every connection opens with a 4-byte header — magic 0xEF 'M' 'W' plus
// a codec version byte — followed by the sender's length-prefixed listen
// address (sent once per connection). After the header the stream is a
// sequence of frames:
//
//	uvarint payload length | payload (message tag byte + body)
//
// A connection that opens with anything else is counted as one decode
// error and dropped.
//
// Compatibility rule: within a codec version, message tags and body
// layouts are append-only (new tags may be added; existing ones are
// frozen). An incompatible layout change bumps the version byte, and a
// reader drops connections bearing versions it does not know, so mixed
// fleets should upgrade readers first.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"github.com/moara/moara/internal/core"
	"github.com/moara/moara/internal/wirefmt"
)

const (
	// wireMagic opens every connection. No gob stream can start with it
	// (gob's unsigned-int encoding never emits [0x80,0xF7] first), so a
	// pre-framing agent is rejected at its first byte.
	wireMagic = 0xEF
	// wireVersion is the current codec version. Readers drop connections
	// bearing versions they do not know.
	wireVersion = 1
	// maxFrame bounds one frame's payload (and therefore the decoder's
	// allocation) — far above any real message, far below harm.
	maxFrame = 32 << 20
	// maxAddrLen bounds the connection header's address field.
	maxAddrLen = 256
)

var (
	errFrameTooBig = errors.New("transport: frame exceeds size limit")
	errBadVersion  = errors.New("transport: unknown codec version")
)

// appendConnHeader appends the once-per-connection preamble to dst.
func appendConnHeader(dst []byte, fromAddr string) []byte {
	dst = append(dst, wireMagic, 'M', 'W', wireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(fromAddr)))
	return append(dst, fromAddr...)
}

// readConnHeader consumes and checks the connection preamble.
func readConnHeader(br *bufio.Reader) (fromAddr string, err error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return "", err
	}
	if magic[0] != wireMagic || magic[1] != 'M' || magic[2] != 'W' {
		return "", fmt.Errorf("transport: bad connection magic: %w", wirefmt.ErrCorrupt)
	}
	if magic[3] != wireVersion {
		return "", fmt.Errorf("%w %d", errBadVersion, magic[3])
	}
	ln, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if ln == 0 || ln > maxAddrLen {
		return "", fmt.Errorf("transport: connection header address length %d: %w", ln, wirefmt.ErrCorrupt)
	}
	raw := make([]byte, ln)
	if _, err := io.ReadFull(br, raw); err != nil {
		return "", err
	}
	return string(raw), nil
}

// appendFrame appends m to dst as one frame: the uvarint payload length,
// then the payload (core.AppendMessage). The payload is encoded behind a
// length slot of maximal size that then closes up to the length's real
// size, so a frame needs one buffer and the sender one Write. On error
// dst is returned unchanged.
func appendFrame(dst []byte, m any) ([]byte, error) {
	start := len(dst)
	body := start + binary.MaxVarintLen64
	out, err := core.AppendMessage(append(dst, make([]byte, binary.MaxVarintLen64)...), m)
	if err != nil {
		return dst, err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(out)-body))
	copy(out[start:], hdr[:n])
	copy(out[start+n:], out[body:])
	return out[:len(out)-(binary.MaxVarintLen64-n)], nil
}

// frameChunk is the step readFrame grows its buffer by, so allocation
// tracks bytes actually received: a peer declaring a huge frame and
// hanging up costs one chunk, not maxFrame.
const frameChunk = 64 << 10

// readFrame reads one frame into *scratch (reused across frames; it
// grows to the largest frame the connection has carried) and returns
// the payload slice, valid until the next call.
func readFrame(br *bufio.Reader, scratch *[]byte) ([]byte, error) {
	ln, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ln > maxFrame {
		return nil, errFrameTooBig
	}
	need := int(ln)
	buf := (*scratch)[:0]
	for len(buf) < need {
		step := min(need-len(buf), frameChunk)
		if cap(buf)-len(buf) < step {
			nb := make([]byte, len(buf), min(need, max(2*cap(buf), len(buf)+step)))
			copy(nb, buf)
			buf = nb
		}
		if _, err := io.ReadFull(br, buf[len(buf):len(buf)+step]); err != nil {
			*scratch = buf[:0]
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		buf = buf[:len(buf)+step]
	}
	*scratch = buf
	return buf, nil
}

// countingConn wraps a net.Conn with byte counters feeding Node stats.
type countingConn struct {
	net.Conn
	in, out *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

// Stats is a snapshot of a node's transport counters. DecodeErrors is
// the observability fix for silent teardown: a malformed frame used to
// kill its readLoop with no trace, indistinguishable from loss.
type Stats struct {
	// MsgsIn / MsgsOut count wire messages dispatched / sent (a batch
	// counts once).
	MsgsIn, MsgsOut uint64
	// BytesIn / BytesOut count raw TCP payload bytes.
	BytesIn, BytesOut uint64
	// DecodeErrors counts inbound frames or connections that failed to
	// decode (corrupt frame, unknown tag, gob-body error, bad magic or
	// version).
	DecodeErrors uint64
	// Dials / DialErrors count outbound connection attempts and
	// failures; DialsSuppressed counts sends skipped by the negative
	// dial cache while a dead peer was in backoff.
	Dials, DialErrors, DialsSuppressed uint64
}

// Stats returns a consistent-enough snapshot of the node's counters
// (each counter is individually atomic).
func (n *Node) Stats() Stats {
	return Stats{
		MsgsIn:          n.msgsIn.Load(),
		MsgsOut:         n.msgsOut.Load(),
		BytesIn:         n.bytesIn.Load(),
		BytesOut:        n.bytesOut.Load(),
		DecodeErrors:    n.decodeErrs.Load(),
		Dials:           n.dials.Load(),
		DialErrors:      n.dialErrs.Load(),
		DialsSuppressed: n.dialsSuppressed.Load(),
	}
}
