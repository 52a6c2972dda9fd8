// Package wire implements both encodings of the serving messages. The
// JSON one (json.go) is written by hand: it writes the bytes
// encoding/json writes and reads what it reads, without reflection, so
// JSON no longer dominates per-request CPU on the serving path. The
// binary one is a length-prefixed, CRC-checksummed, versioned framing —
// the same idiom internal/wal uses on disk — several times smaller and
// faster again. The two are negotiated per request via HTTP content
// types, so JSON and binary clients interoperate against the same edge.
//
// Framing (all integers little-endian, matching the WAL):
//
//	[4B payload length][4B CRC32(payload)][payload]
//	payload = [1B version][1B message type][body]
//
// Bodies are encoded with varints for integers, raw IEEE-754 bits for
// floats, and length-prefixed byte strings, so a batch of 64 check-ins
// costs a few hundred bytes instead of several kilobytes of JSON. Every
// message type round-trips to an identical struct (times are normalized
// to UTC; nil and empty slices are distinguished), a property pinned by
// the fuzz tests in this package.
//
// The codec is deliberately not self-describing: each HTTP route knows
// the message type it expects, and Decode rejects a frame whose type
// byte disagrees — a mis-routed body fails loudly instead of decoding
// into garbage.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/geo"
)

// ContentType is the HTTP media type of binary-encoded serving-path
// bodies. Clients send it as Content-Type (request body encoding) and
// Accept (requested response encoding); anything else is served as the
// pre-existing application/json.
const ContentType = "application/x-privlocad-bin"

// Version is the current protocol version; Decode rejects frames from
// any other version so an old client can never be silently misread.
const Version = 1

const (
	// headerSize is the frame prefix: 4B length + 4B CRC.
	headerSize = 8
	// MaxMessageBytes bounds a frame's payload; a corrupt length prefix
	// must never trigger a huge allocation.
	MaxMessageBytes = 16 << 20
)

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
	ErrFrame = errors.New("wire: malformed frame")
	// ErrChecksum reports a payload whose CRC32 does not match the header.
	ErrChecksum = errors.New("wire: checksum mismatch")
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
	readBody(r *reader)
}

// Append encodes m as one binary frame appended to dst and returns the
// extended slice. Encoding into a caller-pooled buffer keeps the server
// hot path allocation-free.
func Append(dst []byte, m Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header, patched below
	dst = append(dst, Version, m.wireType())
	dst = m.appendBody(dst)
	payload := dst[start+headerSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// Encode returns m as one freshly allocated binary frame.
func Encode(m Message) []byte { return Append(nil, m) }

// Decode parses one binary frame into m. The frame must span data
// exactly: checksummed length prefix, matching version and type bytes,
// and a body with no bytes left over.
func Decode(data []byte, m Message) error {
	payload, err := RawFramePayload(data)
	if err != nil {
		return err
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
	r := &reader{buf: payload[2:]}
	m.readBody(r)
	if r.err != nil {
		return fmt.Errorf("%w: %v", ErrBody, r.err)
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBody, len(r.buf)-r.off)
	}
	return nil
}

// --- encoding primitives ---

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

func appendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendUint64 encodes a fixed 8-byte little-endian word. Fingerprints
// use it instead of a varint: hash values occupy the full 64-bit range,
// where varints cost 9-10 bytes.
func appendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendPoint(dst []byte, p geo.Point) []byte {
	dst = appendFloat64(dst, p.X)
	return appendFloat64(dst, p.Y)
}

// appendTime encodes t as a zero flag plus unix seconds and
// nanoseconds. The location is not carried: decoding yields the same
// instant in UTC, which is all the serving path ever compares.
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendVarint(dst, t.Unix())
	return appendUvarint(dst, uint64(t.Nanosecond()))
}

// appendLen encodes a slice length with nil-ness preserved: 0 is nil,
// k+1 is a k-element slice, so binary round trips are identity for both
// nil and empty slices (JSON makes the same distinction via null).
func appendLen[T any](dst []byte, s []T) []byte {
	if s == nil {
		return appendUvarint(dst, 0)
	}
	return appendUvarint(dst, uint64(len(s))+1)
}

// --- decoding primitives ---

// reader walks a payload body with a sticky error, so message decoders
// read field after field and check once at the end.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) int_() int { return int(r.varint64()) }

func (r *reader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated uint64 at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated float64 at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string length %d exceeds %d remaining bytes", n, len(r.buf)-r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) bool_() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated bool at offset %d", r.off)
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.fail("bool byte %d at offset %d", b, r.off-1)
		return false
	}
	return b == 1
}

func (r *reader) point() geo.Point {
	x := r.float64()
	y := r.float64()
	return geo.Point{X: x, Y: y}
}

func (r *reader) time() time.Time {
	if !r.bool_() {
		return time.Time{}
	}
	s := r.varint64()
	n := r.uvarint()
	if r.err != nil {
		return time.Time{}
	}
	if n >= 1e9 {
		r.fail("time nanoseconds %d out of range", n)
		return time.Time{}
	}
	return time.Unix(s, int64(n)).UTC()
}

// sliceLen inverts appendLen: it returns the element count and whether
// the slice was non-nil, bounding the count by the bytes remaining so a
// corrupt frame cannot force a huge allocation (every element costs at
// least one byte).
func (r *reader) sliceLen() (int, bool) {
	v := r.uvarint()
	if r.err != nil || v == 0 {
		return 0, false
	}
	n := v - 1
	if n > uint64(len(r.buf)-r.off) {
		r.fail("slice length %d exceeds %d remaining bytes", n, len(r.buf)-r.off)
		return 0, false
	}
	return int(n), true
}
