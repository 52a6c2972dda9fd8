// Package binfmt is the repository's one binary encoding: the append
// primitives, the sticky-error Reader that inverts them, and the
// checksummed frame (frame.go). internal/core writes user frames,
// snapshots and WAL records with it, internal/wal frames segment
// records and spill frames with it, and internal/wire encodes the
// serving and replication messages with it. It imports only the
// standard library and internal/geo, so all three can share it.
//
// Layouts (fixed-width integers are little-endian):
//
//	uvarint, varint   encoding/binary varints
//	uint64            8 bytes
//	string, bytes     uvarint length, then the bytes
//	point             X then Y, each its 8 bytes of IEEE-754 bits
//	time              flag byte: 0 for the zero time, 1 for a set
//	                  time, followed by varint unix seconds and varint
//	                  nanoseconds
//
// The time layout keeps the zero time distinct from every instant and
// carries no location: a decoded time is the same instant in UTC, so a
// replayed, faulted-in or received time reads back identically
// whatever the host's zone.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/geo"
)

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendInt appends v as a varint.
func AppendInt(b []byte, v int) []byte { return AppendVarint(b, int64(v)) }

// AppendUint64 appends v as 8 little-endian bytes: the layout for
// values that use the whole 64-bit range, such as fingerprints, where a
// varint would take 9 or 10 bytes.
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s, a string or a byte string, with its uvarint
// length.
func AppendString[S ~string | ~[]byte](b []byte, s S) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendPoint appends p's X and Y as IEEE-754 bits.
func AppendPoint(b []byte, p geo.Point) []byte {
	b = AppendUint64(b, math.Float64bits(p.X))
	return AppendUint64(b, math.Float64bits(p.Y))
}

// AppendTime appends t in the time layout of the package comment.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = AppendVarint(b, t.Unix())
	return AppendVarint(b, int64(t.Nanosecond()))
}

// ReadPoint decodes the point at the front of b, which must hold its
// 16 bytes. Reader.Point checks that they are there; ReadPoint alone
// serves bytes this process encoded itself.
func ReadPoint(b []byte) geo.Point {
	_ = b[15]
	return geo.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(b)),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
	}
}

// SkipTime returns b past the time at its front, stepping over its
// bytes without decoding them. b must hold a time as AppendTime writes
// it: SkipTime checks nothing, for bytes this process encoded itself.
func SkipTime(b []byte) []byte {
	if b[0] == 0 {
		return b[1:]
	}
	n := 1
	for b[n] >= 0x80 { // the seconds' varint
		n++
	}
	n++
	for b[n] >= 0x80 { // the nanoseconds' varint
		n++
	}
	return b[n+1:]
}

// TimeLen returns len(AppendTime(nil, t)) without encoding t.
func TimeLen(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + varintLen(t.Unix()) + varintLen(int64(t.Nanosecond()))
}

// varintLen returns len(AppendVarint(nil, v)): seven bits of the
// zig-zag encoding per byte.
func varintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return (bits.Len64(ux|1) + 6) / 7
}

// AppendSliceLen appends s's length with nil-ness kept: 0 for a nil
// slice, k+1 for k elements. Reader.SliceLen inverts it.
func AppendSliceLen[T any](b []byte, s []T) []byte {
	if s == nil {
		return AppendUvarint(b, 0)
	}
	return AppendUvarint(b, uint64(len(s))+1)
}

// Reader decodes the primitives above with a sticky error: a decoder
// reads field after field and checks Err (or Finish) once at the end.
// After the first failure every read returns a zero value. Callers wrap
// the error in their own sentinel.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. Strings and byte strings are
// copied out of b; Rest aliases it.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a failure found by the caller, such as a value out of
// its range, unless the reader has already failed.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Finish returns the reader's error, or an error if bytes remain unread.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("%d trailing bytes at offset %d", len(r.buf)-r.off, r.off)
	}
	return r.err
}

// next consumes n bytes, failing with what when fewer remain.
func (r *Reader) next(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.Failf("%s of %d bytes at offset %d runs past the end", what, n, r.off)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Uvarint reads a uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads a varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Uint64 reads 8 little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if b := r.next(8, "uint64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// flag reads one byte and fails unless it is 0 or 1.
func (r *Reader) flag(what string) bool {
	b := r.next(1, what)
	if b != nil && b[0] > 1 {
		r.Failf("%s byte %d at offset %d", what, b[0], r.off-1)
	}
	return b != nil && b[0] == 1
}

// Bool reads one byte and fails unless it is 0 or 1.
func (r *Reader) Bool() bool { return r.flag("bool") }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.next(r.Uvarint(), "string")) }

// StrReuse is Str, except that it returns prev itself, without
// allocating, when the bytes read spell prev: the items of a batch that
// repeat one string then share one copy of it.
func (r *Reader) StrReuse(prev string) string {
	b := r.next(r.Uvarint(), "string")
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// Bytes reads a length-prefixed byte string into a fresh slice; an
// empty one reads as nil.
func (r *Reader) Bytes() []byte {
	if b := r.next(r.Uvarint(), "byte string"); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// Rest consumes and returns every unread byte, aliasing the input.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Point reads a point.
func (r *Reader) Point() geo.Point {
	if b := r.next(16, "point"); b != nil {
		return ReadPoint(b)
	}
	return geo.Point{}
}

// Time reads the time layout. It fails on a flag byte above 1 and on
// nanoseconds outside [0, 1e9), which AppendTime never writes.
func (r *Reader) Time() time.Time {
	if !r.flag("time flag") {
		return time.Time{}
	}
	sec := r.Varint()
	nsec := r.Varint()
	if nsec < 0 || nsec >= 1e9 {
		r.Failf("time nanoseconds %d out of range at offset %d", nsec, r.off)
	}
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, nsec).UTC()
}

// Items checks that n items, each at least floor bytes when encoded,
// fit in the unread bytes, and returns n as an int. A decoder sizes its
// slices by the result, so a corrupt count fails here instead of
// forcing an allocation the input cannot back.
func (r *Reader) Items(n uint64, floor int) int {
	if left := len(r.buf) - r.off; r.err == nil && n > uint64(left/floor) {
		r.Failf("count %d of items of at least %d bytes exceeds %d remaining bytes", n, floor, left)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Count reads a uvarint item count and checks it with Items.
func (r *Reader) Count(floor int) int { return r.Items(r.Uvarint(), floor) }

// SliceLen reads AppendSliceLen's encoding, checked with Items. ok is
// false for a nil slice.
func (r *Reader) SliceLen(floor int) (n int, ok bool) {
	v := r.Uvarint()
	if r.err != nil || v == 0 {
		return 0, false
	}
	n = r.Items(v-1, floor)
	return n, r.err == nil
}
