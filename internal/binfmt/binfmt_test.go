package binfmt

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geo"
)

// TestRoundTrip: every primitive reads back what it wrote, the zero
// time as the zero time and a set time as the same instant in UTC.
func TestRoundTrip(t *testing.T) {
	zone := time.FixedZone("UTC+7", 7*3600)
	at := time.Unix(1700000000, 999_999_999).In(zone)
	early := time.Unix(-5, 7).UTC()
	var b []byte
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendInt(b, -42)
	b = AppendUint64(b, 0xfedc_ba98_7654_3210)
	b = AppendPoint(b, geo.Point{X: math.Copysign(0, -1), Y: math.Inf(1)})
	b = AppendBool(b, true)
	b = AppendString(b, "héllo")
	b = AppendString(b, []byte{1, 2, 3})
	b = AppendString(b, []byte(nil))
	b = AppendPoint(b, geo.Point{X: 1.5, Y: -2.25})
	b = AppendTime(b, time.Time{})
	b = AppendTime(b, at)
	b = AppendTime(b, early)
	b = AppendSliceLen(b, []int(nil))
	b = AppendSliceLen(b, []int{})
	b = AppendInt(AppendSliceLen(b, []int{7}), 7)
	b = append(b, 9)

	r := NewReader(b)
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Uint64(); v != 0xfedc_ba98_7654_3210 {
		t.Errorf("Uint64 = %x", v)
	}
	if v := r.Point(); v.X != 0 || !math.Signbit(v.X) || !math.IsInf(v.Y, 1) {
		t.Errorf("Point = %v, want (-0, +Inf)", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Str(); v != "héllo" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("empty Bytes = %v, want nil", v)
	}
	if v := r.Point(); v != (geo.Point{X: 1.5, Y: -2.25}) {
		t.Errorf("Point = %v", v)
	}
	if v := r.Time(); !v.IsZero() {
		t.Errorf("zero Time = %v", v)
	}
	if v := r.Time(); !v.Equal(at) || v.Location() != time.UTC {
		t.Errorf("Time = %v, want %v in UTC", v, at)
	}
	if v := r.Time(); !v.Equal(early) {
		t.Errorf("pre-epoch Time = %v, want %v", v, early)
	}
	for _, want := range []struct {
		n  int
		ok bool
	}{{0, false}, {0, true}, {1, true}} {
		if n, ok := r.SliceLen(1); n != want.n || ok != want.ok {
			t.Errorf("SliceLen = %d, %v; want %d, %v", n, ok, want.n, want.ok)
		}
	}
	if r.Int() != 7 {
		t.Error("slice element misread")
	}
	if err := r.Finish(); err == nil {
		t.Error("Finish ignored a trailing byte")
	}
	if v := r.Rest(); !bytes.Equal(v, []byte{9}) {
		t.Errorf("Rest = %v", v)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish after Rest: %v", err)
	}
}

// TestReaderRejects: each malformed input fails the reader, and the
// failure sticks.
func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"time flag 2", []byte{2, 0, 0}, func(r *Reader) { r.Time() }},
		{"negative nanoseconds", AppendVarint(AppendVarint([]byte{1}, 5), -1), func(r *Reader) { r.Time() }},
		{"nanoseconds of a whole second", AppendVarint(AppendVarint([]byte{1}, 5), 1e9), func(r *Reader) { r.Time() }},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"truncated point", make([]byte, 15), func(r *Reader) { r.Point() }},
		{"truncated uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{"string past the end", []byte{5, 'a'}, func(r *Reader) { r.Str() }},
		{"bytes past the end", []byte{5, 'a'}, func(r *Reader) { r.Bytes() }},
		{"count past its floor", append([]byte{4}, make([]byte, 7)...), func(r *Reader) { r.Count(2) }},
		{"slice count past its floor", append([]byte{5}, make([]byte, 7)...), func(r *Reader) { r.SliceLen(2) }},
	}
	for _, tc := range cases {
		r := NewReader(tc.in)
		tc.read(&r)
		if r.Err() == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if r.Uvarint() != 0 || r.Rest() != nil || r.Finish() == nil {
			t.Errorf("%s: reader kept reading after its failure", tc.name)
		}
	}
	r := NewReader(append([]byte{4}, make([]byte, 8)...))
	if n := r.Count(2); n != 4 || r.Err() != nil {
		t.Errorf("Count(2) of 4 items in 8 bytes = %d, %v", n, r.Err())
	}
}

// TestTimeLen: TimeLen is the length AppendTime writes, and SkipTime
// steps over exactly those bytes, at every varint width of the seconds
// and nanoseconds, on both sides of zero, and for times int64
// nanoseconds since 1970 cannot hold. ReadPoint reads what AppendPoint
// writes, as Reader.Point does.
func TestTimeLen(t *testing.T) {
	times := []time.Time{
		{},
		time.Unix(0, 0),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2300, 1, 1, 0, 0, 0, 999_999_999, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.FixedZone("east", 14*3600)),
		time.Unix(math.MaxInt64/2, 0),
		time.Unix(math.MinInt64/2, 0),
		time.Now(),
	}
	for shift := 0; shift < 63; shift++ {
		for _, sec := range []int64{1<<shift - 1, 1 << shift, -(1 << shift), -(1 << shift) - 1} {
			times = append(times, time.Unix(sec, 0))
		}
	}
	for ns := int64(1); ns < 1e9; ns *= 2 {
		times = append(times, time.Unix(1, ns-1), time.Unix(-1, ns))
	}
	for i, at := range times {
		b := AppendTime(nil, at)
		if got := TimeLen(at); got != len(b) {
			t.Errorf("TimeLen(%v) = %d, want %d", at, got, len(b))
		}
		p := geo.Point{X: math.Float64frombits(uint64(i) * 0x9e37_79b9_7f4a_7c15), Y: -float64(i)}
		rec := AppendTime(AppendPoint(nil, p), at)
		rec = append(rec, 0xff) // the next record's first byte
		if got := ReadPoint(rec); math.Float64bits(got.X) != math.Float64bits(p.X) || got.Y != p.Y {
			t.Errorf("ReadPoint = %v, want %v", got, p)
		}
		if rest := SkipTime(rec[16:]); len(rest) != 1 || rest[0] != 0xff {
			t.Errorf("SkipTime(%v) left %d bytes, want 1", at, len(rest))
		}
	}
}

// TestStrReuse: StrReuse returns the previous string itself when the
// bytes spell it, without allocating, and a fresh string otherwise.
func TestStrReuse(t *testing.T) {
	prev := strings.Repeat("device-", 4)
	b := AppendString(AppendString(AppendString(nil, prev), prev), "other")
	r := NewReader(b)
	first := r.StrReuse("")
	if first != prev {
		t.Fatalf("StrReuse = %q, want %q", first, prev)
	}
	if got := r.StrReuse(first); got != first || unsafe.StringData(got) != unsafe.StringData(first) {
		t.Errorf("StrReuse of the same bytes = %q, not the previous string", got)
	}
	if got := r.StrReuse(first); got != "other" {
		t.Errorf("StrReuse = %q, want %q", got, "other")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	again := NewReader(AppendString(nil, prev))
	if n := testing.AllocsPerRun(100, func() {
		again = NewReader(again.buf)
		again.StrReuse(prev)
	}); n != 0 {
		t.Errorf("StrReuse of the previous string allocated %.0f times", n)
	}
}

// TestFrame: the three entry points agree on a frame, and the readers
// name the failure.
func TestFrame(t *testing.T) {
	payload := []byte("a record")
	dst, start := BeginFrame([]byte("prefix"))
	dst = EndFrame(append(dst, payload...), start)
	frame := AppendFrame(nil, payload)
	if !bytes.Equal(dst[len("prefix"):], frame) {
		t.Fatal("BeginFrame/EndFrame and AppendFrame disagree")
	}
	two := append(bytes.Clone(frame), AppendFrame(nil, []byte("next"))...)
	got, rest, err := SplitFrame(two)
	if err != nil || !bytes.Equal(got, payload) || !bytes.Equal(rest, AppendFrame(nil, []byte("next"))) {
		t.Fatalf("SplitFrame = %q, %q, %v", got, rest, err)
	}
	stream := bytes.NewReader(two)
	var buf []byte
	for _, want := range []string{"a record", "next"} {
		if buf, err = ReadFrame(stream, buf); err != nil || string(buf) != want {
			t.Fatalf("ReadFrame = %q, %v; want %q", buf, err, want)
		}
	}
	if _, err := ReadFrame(stream, buf); err != io.EOF {
		t.Fatalf("ReadFrame at the end = %v, want io.EOF", err)
	}

	flipped := bytes.Clone(frame)
	flipped[5] ^= 1
	oversized := bytes.Clone(frame)
	oversized[3] = 0x7f
	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"short header", frame[:5], ErrFrame},
		{"short payload", frame[:len(frame)-1], ErrFrame},
		{"oversized length", oversized, ErrFrame},
		{"flipped CRC", flipped, ErrChecksum},
	} {
		if _, _, err := SplitFrame(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: SplitFrame = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := ReadFrame(bytes.NewReader(tc.in), nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadFrame = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestFrameAboveReadBound pins where MaxPayload applies: a frame whose
// bytes are all in hand splits whatever its size, since splitting
// allocates nothing, while the stream reader, which allocates what the
// header claims, rejects the length before reading the payload.
func TestFrameAboveReadBound(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, MaxPayload+1)
	frame := AppendFrame(nil, payload)
	got, rest, err := SplitFrame(frame)
	if err != nil || !bytes.Equal(got, payload) || len(rest) != 0 {
		t.Fatalf("SplitFrame of a %d-byte payload: %d bytes, %d left, %v", len(payload), len(got), len(rest), err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame), nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("ReadFrame of a %d-byte payload = %v, want ErrFrame", len(payload), err)
	}
}

// FuzzFrame holds the frame's two readers to each other on arbitrary
// bytes: SplitFrame on a slice and ReadFrame on a stream return the same
// payload or both fail (ReadFrame alone also rejecting a payload over
// MaxPayload), an accepted payload re-frames to the bytes it was read
// from, and the stream read allocates nothing past MaxPayload whatever
// length the header claims.
func FuzzFrame(f *testing.F) {
	f.Add(AppendFrame(nil, []byte("payload")))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, _, splitErr := SplitFrame(data)
		var streamed []byte
		var readErr error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		streamed, readErr = ReadFrame(bytes.NewReader(data), nil)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > MaxPayload+64<<10 {
			t.Fatalf("ReadFrame of %d bytes allocated %d", len(data), n)
		}
		if splitErr == nil && len(payload) > MaxPayload {
			if !errors.Is(readErr, ErrFrame) {
				t.Fatalf("ReadFrame of a %d-byte payload = %v, want ErrFrame", len(payload), readErr)
			}
			return
		}
		if (splitErr == nil) != (readErr == nil) {
			t.Fatalf("SplitFrame error %v, ReadFrame error %v", splitErr, readErr)
		}
		if splitErr != nil {
			return
		}
		if !bytes.Equal(payload, streamed) {
			t.Fatalf("SplitFrame payload %x, ReadFrame payload %x", payload, streamed)
		}
		if framed := AppendFrame(nil, payload); !bytes.Equal(framed, data[:len(framed)]) {
			t.Fatalf("payload re-frames to %x, read from %x", framed, data[:len(framed)])
		}
	})
}
