package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Raw frames are the codec's outer framing — [4B length][4B CRC32]
// [payload] — factored out from the version/type payload envelope.
// Decode routes through RawFramePayload, so there is exactly one
// definition of what a well-formed message frame is. The engine's spill
// records and snapshot streams use the identical layout, written by
// wal.AppendFrame (core sits below this package, so it frames there).

// RawFramePayload verifies one raw frame and returns its payload
// (aliasing data, not a copy). The frame must span data exactly.
func RawFramePayload(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrFrame, len(data), headerSize)
	}
	n := binary.LittleEndian.Uint32(data)
	if n > MaxMessageBytes {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrFrame, n, MaxMessageBytes)
	}
	if uint32(len(data)-headerSize) != n {
		return nil, fmt.Errorf("%w: header says %d payload bytes, frame has %d", ErrFrame, n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[4:]); got != want {
		return nil, fmt.Errorf("%w: %08x, header says %08x", ErrChecksum, got, want)
	}
	return payload, nil
}
