package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The frame is the one checksummed envelope: WAL segment records, spill
// frames, the frames of a checkpoint stream and wire messages all use
//
//	[4B payload length][4B CRC32 (IEEE) of the payload][payload]
//
// A frame has three entry points: BeginFrame/EndFrame (and AppendFrame,
// AppendHeader) write one, SplitFrame takes one from the front of a
// slice, and ReadFrame takes one from a stream. Only ReadFrame, which
// allocates what a header claims, bounds the length by MaxPayload;
// SplitFrame checks it against the bytes in hand, so a larger frame (a
// user frame with a long pending window, say) still splits. An empty
// payload is a valid frame, and its CRC is zero: a log that must tell a
// zero-filled tail from records rejects empty payloads itself.

const (
	// HeaderSize is the frame prefix: the length and the CRC.
	HeaderSize = 8
	// MaxPayload bounds the payload ReadFrame accepts.
	MaxPayload = 16 << 20
)

var (
	// ErrFrame reports a structurally broken frame: a short header, an
	// oversized length, or a payload shorter than its length.
	ErrFrame = errors.New("binfmt: malformed frame")
	// ErrChecksum reports a payload whose CRC32 differs from its header's.
	ErrChecksum = errors.New("binfmt: CRC mismatch")
)

// BeginFrame reserves a frame header at the end of dst. Append the
// payload to the returned slice, then pass it and start to EndFrame;
// the payload is encoded in place, never copied.
func BeginFrame(dst []byte) (out []byte, start int) {
	return append(dst, make([]byte, HeaderSize)...), len(dst)
}

// EndFrame fills in the header BeginFrame reserved at start for the
// payload that follows it, appending over the reserved bytes in place.
func EndFrame(dst []byte, start int) []byte {
	AppendHeader(dst[start:start], dst[start+HeaderSize:])
	return dst
}

// AppendHeader appends the header of a frame holding payload, but not
// the payload: a writer sends the payload after it without copying it.
func AppendHeader(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// AppendFrame appends payload to dst as one frame.
func AppendFrame(dst, payload []byte) []byte {
	return append(AppendHeader(dst, payload), payload...)
}

func checkCRC(payload []byte, want uint32) error {
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fmt.Errorf("%w: %08x, header says %08x", ErrChecksum, got, want)
	}
	return nil
}

// SplitFrame verifies the frame at the front of b and returns its
// payload (aliasing b) and the bytes after it. A length running past
// the end of b is rejected before the checksum is computed; no other
// bound applies.
func SplitFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < HeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrFrame, len(b), HeaderSize)
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n > uint64(len(b)-HeaderSize) {
		return nil, nil, fmt.Errorf("%w: header says %d payload bytes, %d follow", ErrFrame, n, len(b)-HeaderSize)
	}
	payload = b[HeaderSize : HeaderSize+n]
	if err := checkCRC(payload, binary.LittleEndian.Uint32(b[4:])); err != nil {
		return nil, nil, err
	}
	return payload, b[HeaderSize+n:], nil
}

// ReadFrame reads one frame from r and returns its payload, read into
// buf's backing array when it is large enough; pass the previous
// payload back as buf to reuse it. A length over MaxPayload is rejected
// before anything is allocated. At a clean end of the stream, before
// any header byte, it returns io.EOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into buf too, so reading with a reused buffer
	// allocates nothing.
	if cap(buf) < HeaderSize {
		buf = make([]byte, HeaderSize)
	}
	hdr := buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short header: %w", ErrFrame, err)
	}
	n, crc := binary.LittleEndian.Uint32(hdr), binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrame, n, MaxPayload)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: short payload of %d bytes: %w", ErrFrame, n, err)
	}
	if err := checkCRC(buf, crc); err != nil {
		return nil, err
	}
	return buf, nil
}
