// Package wire implements both encodings of the serving messages. The
// JSON one (json.go) is written by hand: it writes the bytes
// encoding/json writes and reads what it reads, without reflection, so
// JSON no longer dominates per-request CPU on the serving path. The
// binary one is a binfmt frame — the length-prefixed, CRC-checksummed
// envelope WAL records, spill frames and checkpoints use on disk —
// around a versioned payload, several times smaller and faster again.
// The two are negotiated per request via HTTP content types, so JSON
// and binary clients interoperate against the same edge.
//
// Framing (all integers little-endian, matching the WAL):
//
//	[4B payload length][4B CRC32(payload)][payload]
//	payload = [1B version][1B message type][body]
//
// Bodies use binfmt's layouts: varints for integers, raw IEEE-754 bits
// for floats, length-prefixed byte strings, and a flag byte plus varint
// seconds and nanoseconds for times. A batch of 64 check-ins costs a
// few hundred bytes instead of several kilobytes of JSON. Every message
// type round-trips to an identical struct (times are normalized to UTC;
// nil and empty slices are distinguished), a property pinned by the
// fuzz tests in this package.
//
// The codec is deliberately not self-describing: each HTTP route knows
// the message type it expects, and Decode rejects a frame whose type
// byte disagrees — a mis-routed body fails loudly instead of decoding
// into garbage.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/binfmt"
)

// ContentType is the HTTP media type of binary-encoded serving-path
// bodies. Clients send it as Content-Type (request body encoding) and
// Accept (requested response encoding); anything else is served as the
// pre-existing application/json.
const ContentType = "application/x-privlocad-bin"

// Version is the current protocol version; Decode rejects frames from
// any other version so an old client can never be silently misread.
// Version 1 wrote a time's nanoseconds as a uvarint; version 2 writes
// binfmt's varint.
const Version = 2

// MaxMessageBytes is the binfmt frame bound: the most a reader
// allocates for a payload before its bytes arrive.
const MaxMessageBytes = binfmt.MaxPayload

// Message type bytes. The zero value is reserved so an all-zero frame
// can never pass for a real message.
const (
	typeInvalid byte = iota
	typeReport
	typeReportBatch
	typeReportBatchResponse
	typeAdsRequest
	typeAdsResponse
	typeStats
	typeError
	typeReplDelta
)

// Codec errors.
var (
	// ErrFrame reports a structurally broken frame: truncated header,
	// length prefix disagreeing with the body, or trailing garbage.
	ErrFrame = binfmt.ErrFrame
	// ErrChecksum reports a payload whose CRC32 does not match the header.
	ErrChecksum = binfmt.ErrChecksum
	// ErrVersion reports a frame from an unsupported protocol version.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrType reports a frame whose message type differs from the one the
	// caller expected for this route.
	ErrType = errors.New("wire: unexpected message type")
	// ErrBody reports a payload whose body failed to decode (truncated
	// fields, oversized counts, trailing bytes).
	ErrBody = errors.New("wire: malformed body")
)

// Message is one serving-path message type. Implementations live in
// this package (messages.go); internal/edge aliases them so the HTTP
// layer's exported request/response types are the wire types.
type Message interface {
	wireType() byte
	appendBody(dst []byte) []byte
	// readBody takes the reader by value and returns it advanced: a
	// pointer passed to an interface method escapes, which would move
	// Decode's reader to the heap on every message.
	readBody(r binfmt.Reader) binfmt.Reader
}

// Append encodes m as one binary frame appended to dst and returns the
// extended slice. Encoding into a caller-pooled buffer keeps the server
// hot path allocation-free.
func Append(dst []byte, m Message) []byte {
	dst, start := binfmt.BeginFrame(dst)
	dst = append(dst, Version, m.wireType())
	return binfmt.EndFrame(m.appendBody(dst), start)
}

// Encode returns m as one freshly allocated binary frame.
func Encode(m Message) []byte { return Append(nil, m) }

// Decode parses one binary frame into m. The frame must span data
// exactly: checksummed length prefix, matching version and type bytes,
// and a body with no bytes left over.
func Decode(data []byte, m Message) error {
	payload, rest, err := binfmt.SplitFrame(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes after the frame", ErrFrame, len(rest))
	}
	if len(payload) < 2 {
		return fmt.Errorf("%w: payload too short for version and type", ErrFrame)
	}
	if payload[0] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, payload[0])
	}
	if payload[1] != m.wireType() {
		return fmt.Errorf("%w: got %d, want %d", ErrType, payload[1], m.wireType())
	}
	r := m.readBody(binfmt.NewReader(payload[2:]))
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: %v", ErrBody, err)
	}
	return nil
}
