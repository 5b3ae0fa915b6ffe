package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// The one wire format. Every byte that crosses a process boundary — a
// TCPComm message, the mesh handshake, a coord control message — travels
// as a frame: u32 body length (at most MaxFrame), i32 tag, body, both
// integers little-endian. A reader checks the length against the cap,
// then grows the body with the bytes that actually arrive (from a 1 MiB
// first chunk), so a hostile or truncated header costs at most twice what
// the peer really sent.

// MaxFrame caps a frame body: 256 MiB, far above the largest message a
// run sends (a whole-forest gather or checkpoint).
const MaxFrame = 256 << 20

const (
	frameHeader = 8
	frameChunk  = 1 << 20
)

// WriteFrame writes one frame to w in a single vectored write.
func WriteFrame(w io.Writer, tag int, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("mpi: %d-byte frame exceeds the %d-byte cap", len(body), MaxFrame)
	}
	if tag != int(int32(tag)) {
		return fmt.Errorf("mpi: tag %d does not fit a frame", tag)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(tag)))
	bufs := net.Buffers{hdr[:], body}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one frame from r. It returns io.EOF unwrapped when r ends
// cleanly on a frame boundary; any other short read is an error.
func ReadFrame(r io.Reader) (tag int, body []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("mpi: frame header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	tag = int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("mpi: frame length %d exceeds the %d-byte cap", n, MaxFrame)
	}
	body = make([]byte, min(n, frameChunk))
	for read := 0; ; {
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("mpi: frame body of %d bytes: %w", n, err)
		}
		if read = len(body); read == n {
			return tag, body, nil
		}
		body = append(body, make([]byte, min(n-read, read))...)
	}
}
