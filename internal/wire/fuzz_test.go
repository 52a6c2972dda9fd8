package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/adnet"
	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/profile"
	"repro/internal/randx"
)

// messageTypes enumerates every serving-path message; the fuzz and
// property tests below run each check over all of them.
var messageTypes = []struct {
	name string
	new  func() Message
}{
	{"report", func() Message { return &ReportRequest{} }},
	{"report_batch", func() Message { return &ReportBatchRequest{} }},
	{"report_batch_response", func() Message { return &ReportBatchResponse{} }},
	{"ads_request", func() Message { return &AdsRequest{} }},
	{"ads_response", func() Message { return &AdsResponse{} }},
	{"stats", func() Message { return &StatsResponse{} }},
	{"error", func() Message { return &ErrorResponse{} }},
	{"repl_delta", func() Message { return &ReplDelta{} }},
}

// gen draws random message values. The plain generator draws what both
// codecs carry unchanged (ASCII strings, finite floats, UTC times), so
// binary and JSON round trips can be compared for struct equality; the
// wide one, used for the JSON leg only, also draws every class of value
// the JSON codec treats specially.
type gen struct {
	rnd  *randx.Rand
	wide bool
}

// wideStrings are the string pieces the wide generator mixes in: HTML
// escapes, control bytes, the quote and the backslash, DEL, non-ASCII,
// invalid UTF-8 (a stray continuation byte, a truncated sequence, an
// encoded surrogate), U+2028/U+2029 and U+FFFD itself.
var wideStrings = []string{
	"<", ">", "&", "\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t",
	`"`, `\`, "\x7f", "é", "中文", "😀", "\xff", "\xc3", "\xed\xa0\x80",
	"\u2028", "\u2029", "\ufffd",
}

// str draws a short string.
func (g gen) str() string {
	if g.wide && g.rnd.IntN(2) == 0 {
		var b []byte
		for n := 1 + g.rnd.IntN(6); n > 0; n-- {
			if g.rnd.IntN(3) == 0 {
				b = append(b, 'a'+byte(g.rnd.IntN(26)))
			} else {
				b = append(b, wideStrings[g.rnd.IntN(len(wideStrings))]...)
			}
		}
		return string(b)
	}
	const charset = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-/.:,!?\"\\{}"
	n := g.rnd.IntN(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = charset[g.rnd.IntN(len(charset))]
	}
	return string(b)
}

// wideFloats are the floats whose JSON form encoding/json special-cases:
// negative zero, both sides of the 'e'-notation cutoffs at 1e-6 and
// 1e21, subnormals, the extremes, and the values JSON cannot carry.
var wideFloats = []float64{
	math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1e21, -1e21,
	9.999999999999999e20, 1.5e300, 5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789e-15,
}

// float draws a finite float, mixing plain coordinates with exact
// integers and negative values; the wide generator adds wideFloats and,
// rarely, NaN or ±Inf, which both JSON encoders must refuse.
func (g gen) float() float64 {
	if g.wide {
		switch g.rnd.IntN(8) {
		case 0:
			return wideFloats[g.rnd.IntN(len(wideFloats))]
		case 1:
			if g.rnd.IntN(8) == 0 {
				return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.rnd.IntN(3)]
			}
			return math.Ldexp(g.rnd.Float64(), g.rnd.IntN(2000)-1000)
		}
	}
	switch g.rnd.IntN(4) {
	case 0:
		return 0
	case 1:
		return float64(g.rnd.IntN(2_000_000) - 1_000_000)
	default:
		return (g.rnd.Float64() - 0.5) * 2e6
	}
}

func (g gen) point() geo.Point {
	return geo.Point{X: g.float(), Y: g.float()}
}

// wideZones are the zones the wide generator puts times in: offsets
// with minutes or seconds, the extremes RFC 3339 can write, and offsets
// of 24 hours or more, which time.Time.MarshalJSON refuses.
var wideZones = []*time.Location{
	time.FixedZone("IST", 5*3600+30*60), time.FixedZone("", -30*60), time.FixedZone("", 14*3600),
	time.FixedZone("", 23*3600+59*60), time.FixedZone("", 3600+30), time.FixedZone("", 24*3600),
	time.FixedZone("", -25*3600),
}

// time draws either the zero time or a UTC instant with nanoseconds in
// the RFC 3339-representable year range. UTC matters: the binary codec
// normalizes decoded times to UTC, and JSON round-trips "Z" timestamps
// back to UTC, so generated values compare equal under
// reflect.DeepEqual after either codec. The wide generator adds other
// zones and the years around 0 and 9999.
func (g gen) time() time.Time {
	if g.wide && g.rnd.IntN(3) == 0 {
		year := []int{-1, 0, 1, 9999, 10000}[g.rnd.IntN(5)]
		t := time.Date(year, time.Month(1+g.rnd.IntN(12)), 1+g.rnd.IntN(28), g.rnd.IntN(24), 0, 0, g.rnd.IntN(1_000_000_000), time.UTC)
		return t.In(wideZones[g.rnd.IntN(len(wideZones))])
	}
	if g.rnd.IntN(4) == 0 {
		return time.Time{}
	}
	sec := int64(g.rnd.IntN(4_000_000_000)) - 1_000_000_000 // ~1938..2096
	return time.Unix(sec, int64(g.rnd.IntN(1_000_000_000))).UTC()
}

func (g gen) int() int {
	return g.rnd.IntN(1_000_000) - 500_000
}

func (g gen) report() ReportRequest {
	return ReportRequest{UserID: g.str(), Pos: g.point(), Time: g.time()}
}

// message draws a random value of the given message type. Slices are
// nil, empty, or populated with roughly equal probability, covering the
// nil-preservation encoding.
func (g gen) message(name string) Message {
	rnd := g.rnd
	genReports := func() []ReportRequest {
		switch rnd.IntN(3) {
		case 0:
			return nil
		case 1:
			return []ReportRequest{}
		}
		out := make([]ReportRequest, 1+rnd.IntN(8))
		for i := range out {
			out[i] = g.report()
		}
		return out
	}
	switch name {
	case "report":
		r := g.report()
		return &r
	case "report_batch":
		return &ReportBatchRequest{Reports: genReports()}
	case "report_batch_response":
		m := &ReportBatchResponse{Accepted: g.int()}
		// Errors carries json omitempty, which collapses a non-nil empty
		// slice to nil across a JSON round trip; the server only ever
		// produces nil or populated, so the generator does too.
		if rnd.IntN(2) == 0 {
			m.Errors = make([]BatchItemError, 1+rnd.IntN(6))
			for i := range m.Errors {
				m.Errors[i] = BatchItemError{Index: g.int(), Error: g.str()}
			}
		}
		return m
	case "ads_request":
		return &AdsRequest{UserID: g.str(), Pos: g.point(), Limit: g.int()}
	case "ads_response":
		m := &AdsResponse{
			Reported:  g.point(),
			FromTable: rnd.IntN(2) == 0,
			Fetched:   g.int(),
			Degraded:  rnd.IntN(2) == 0,
		}
		switch rnd.IntN(3) {
		case 0:
			m.Ads = nil
		case 1:
			m.Ads = []adnet.Ad{}
		default:
			m.Ads = make([]adnet.Ad, 1+rnd.IntN(6))
			for i := range m.Ads {
				m.Ads[i] = adnet.Ad{ID: g.str(), Title: g.str(), Location: g.point()}
			}
		}
		return m
	case "stats":
		return &StatsResponse{Users: g.int(), ProtectedTops: g.int(), TotalCandidate: g.int()}
	case "error":
		return &ErrorResponse{Error: g.str()}
	case "repl_delta":
		d := g.replDelta()
		return &d
	}
	panic("unknown message type " + name)
}

func (g gen) tableEntries(n int) []core.TableEntry {
	out := make([]core.TableEntry, n)
	for i := range out {
		out[i].Top = g.point()
		switch g.rnd.IntN(3) {
		case 0:
			out[i].Candidates = nil
		case 1:
			out[i].Candidates = []geo.Point{}
		default:
			out[i].Candidates = make([]geo.Point, 1+g.rnd.IntN(6))
			for j := range out[i].Candidates {
				out[i].Candidates[j] = g.point()
			}
		}
		out[i].CreatedAt = g.time()
	}
	return out
}

func (g gen) replDelta() ReplDelta {
	rnd := g.rnd
	d := ReplDelta{
		UserID:  g.str(),
		Version: rnd.Uint64(),
		BaseLen: rnd.IntN(1000),
		BaseFP:  rnd.Uint64(),
		FullFP:  rnd.Uint64(),
		At:      g.time(),
	}
	// A packed suffix is never empty, so the generator draws nil or one
	// cut from a random table.
	if rnd.IntN(3) > 0 {
		full := g.tableEntries(1 + rnd.IntN(6))
		d.Suffix = core.PackTable(full).AppendSuffix(nil, rnd.IntN(len(full)+1))
	}
	switch rnd.IntN(3) {
	case 0:
		d.Tops = nil
	case 1:
		d.Tops = profile.Profile{}
	default:
		d.Tops = make(profile.Profile, 1+rnd.IntN(6))
		for i := range d.Tops {
			d.Tops[i] = profile.LocationFreq{Loc: g.point(), Freq: g.int()}
		}
	}
	return d
}

// replicaEngine returns an engine to import table suffixes into.
func replicaEngine(t *testing.T) *core.Engine {
	t.Helper()
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.Config{Mechanism: mech, NomadicMechanism: nomadic, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// FuzzReplDelta is the delta codec fuzzer verify.sh smokes: beyond
// round-trip identity, it pins the content-address contract on the
// packed suffix. For a table of 1+size%12 entries cut at split, the
// suffix cut from the packed table equals the suffix entries packed on
// their own, and a replica holding the base prefix that imports the
// decoded suffix lands on the delta's FullFP, the whole table's
// fingerprint (delta ≡ snapshot). Bit 0 of shape gives the last entry
// the zero CreatedAt, bit 1 leaves it without candidates.
func FuzzReplDelta(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed), uint8(seed%4))
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, splitRaw, shape uint8) {
		rnd := randx.New(seed, 0x0DE1)
		g := gen{rnd: rnd}
		d := g.replDelta()
		checkRoundTrip(t, "repl_delta", &d, func() Message { return &ReplDelta{} })

		full := g.tableEntries(1 + int(size)%12)
		for i := range full {
			// Tops 1 km apart: the replica's first-writer-wins import would
			// drop an entry within the match radius of an earlier one.
			full[i].Top.X = float64(i) * 1000
		}
		last := &full[len(full)-1]
		if shape&1 != 0 {
			last.CreatedAt = time.Time{}
		}
		if shape&2 != 0 {
			last.Candidates = nil
		}
		split := int(splitRaw) % (len(full) + 1)
		table := core.PackTable(full)
		suffix := table.AppendSuffix(nil, split)
		if alone := core.PackTable(full[split:]).AppendSuffix(nil, 0); !bytes.Equal(suffix, alone) {
			t.Fatalf("split %d: suffix cut from the packed table differs from its entries packed alone", split)
		}
		delta := ReplDelta{
			UserID:  "u",
			Version: rnd.Uint64(),
			BaseLen: split,
			BaseFP:  table.Fingerprint(split),
			FullFP:  table.Fingerprint(table.Len()),
			Suffix:  suffix,
			At:      g.time(),
		}
		var got ReplDelta
		if err := Decode(Encode(&delta), &got); err != nil {
			t.Fatalf("delta decode: %v", err)
		}
		if want := core.FingerprintTable(full); got.FullFP != want {
			t.Fatalf("split %d: delta names %x, the table's fingerprint is %x", split, got.FullFP, want)
		}
		if split == 0 && got.BaseFP != core.FingerprintSeed {
			t.Fatalf("snapshot delta base fp = %x, want seed", got.BaseFP)
		}

		replica := replicaEngine(t)
		if err := replica.ImportTable("u", core.PackTable(full[:split]).AppendSuffix(nil, 0)); err != nil {
			t.Fatal(err)
		}
		if n, fp, err := replica.TableState("u"); err != nil || n != got.BaseLen || fp != got.BaseFP {
			t.Fatalf("split %d: base replica holds (%d, %x, %v), delta names (%d, %x)", split, n, fp, err, got.BaseLen, got.BaseFP)
		}
		if err := replica.ImportTable("u", got.Suffix); err != nil {
			t.Fatalf("split %d: importing the decoded suffix: %v", split, err)
		}
		if n, fp, err := replica.TableState("u"); err != nil || n != len(full) || fp != got.FullFP {
			t.Fatalf("split %d: replica landed on (%d, %x, %v), want (%d, %x)", split, n, fp, err, len(full), got.FullFP)
		}
	})
}

// FuzzRoundTrip drives the structured properties from a fuzzer-chosen
// seed: for every message type, (1) binary encode→decode is identity,
// (2) decoding the JSON encoding yields the same struct the binary
// decode yields, and (3) the hand-written JSON codec agrees with
// encoding/json, on plain values and on the wide generator's.
func FuzzRoundTrip(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rnd := randx.New(seed, 0x3142)
		for _, mt := range messageTypes {
			orig := gen{rnd: rnd}.message(mt.name)
			checkRoundTrip(t, mt.name, orig, mt.new)
			if hasJSON(orig) {
				checkJSON(t, mt.name, gen{rnd: rnd, wide: true}.message(mt.name), mt.new)
			}
		}
	})
}

// hasJSON reports whether m is one of the seven serving messages with a
// JSON encoding; ReplDelta travels binary only.
func hasJSON(m Message) bool {
	_, repl := m.(*ReplDelta)
	return !repl
}

func checkRoundTrip(t *testing.T, name string, orig Message, fresh func() Message) {
	t.Helper()
	// Binary round trip is identity.
	frame := Encode(orig)
	binDecoded := fresh()
	if err := Decode(frame, binDecoded); err != nil {
		t.Fatalf("%s: binary decode: %v (value %+v)", name, err, orig)
	}
	if !reflect.DeepEqual(orig, binDecoded) {
		t.Fatalf("%s: binary round trip not identity:\n orig: %+v\n got:  %+v", name, orig, binDecoded)
	}
	// JSON and binary decodes of the same value agree struct-for-struct.
	jsonBytes, err := json.Marshal(orig)
	if err != nil {
		t.Fatalf("%s: json marshal: %v", name, err)
	}
	jsonDecoded := fresh()
	if err := json.Unmarshal(jsonBytes, jsonDecoded); err != nil {
		t.Fatalf("%s: json unmarshal: %v", name, err)
	}
	if !reflect.DeepEqual(jsonDecoded, binDecoded) {
		t.Fatalf("%s: codecs disagree:\n json:   %+v\n binary: %+v", name, jsonDecoded, binDecoded)
	}
	// Appending to a dirty buffer produces the same frame.
	prefixed := Append([]byte("junk-prefix"), orig)
	if !bytes.Equal(prefixed[len("junk-prefix"):], frame) {
		t.Fatalf("%s: Append onto a prefix diverges from Encode", name)
	}
	if hasJSON(orig) {
		checkJSON(t, name, orig, fresh)
	}
}

// checkJSON holds the hand-written JSON codec to encoding/json on one
// value: AppendJSON writes json.Marshal's bytes, onto a dirty buffer
// too, or fails where json.Marshal fails; and DecodeJSON reads those
// bytes into the value json.Unmarshal reads.
func checkJSON(t *testing.T, name string, orig Message, fresh func() Message) {
	t.Helper()
	want, wantErr := json.Marshal(orig)
	got, err := AppendJSON([]byte("junk-prefix"), orig)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: AppendJSON error %v, json.Marshal error %v (value %+v)", name, err, wantErr, orig)
	}
	if err != nil {
		if string(got) != "junk-prefix" {
			t.Fatalf("%s: failed AppendJSON left %q, want the prefix alone", name, got)
		}
		return
	}
	if got = got[len("junk-prefix"):]; !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendJSON differs from json.Marshal:\n got:  %s\n want: %s", name, got, want)
	}
	ref := fresh()
	if err := json.Unmarshal(want, ref); err != nil {
		t.Fatalf("%s: json unmarshal: %v", name, err)
	}
	decoded := fresh()
	if err := DecodeJSON(want, decoded); err != nil {
		t.Fatalf("%s: DecodeJSON of %s: %v", name, want, err)
	}
	if !sameJSONValue(decoded, ref) {
		t.Fatalf("%s: DecodeJSON differs from json.Unmarshal:\n got:  %+v\n want: %+v", name, decoded, ref)
	}
}

// sameJSONValue compares two decoded messages: times by instant and
// zone offset (a decoded offset zone is a fresh *time.Location, so
// DeepEqual would compare pointers' contents that do not matter), the
// rest exactly.
func sameJSONValue(a, b Message) bool {
	ca, ta := withoutTimes(a)
	cb, tb := withoutTimes(b)
	if !reflect.DeepEqual(ca, cb) || len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		_, oa := ta[i].Zone()
		_, ob := tb[i].Zone()
		if !ta[i].Equal(tb[i]) || oa != ob {
			return false
		}
	}
	return true
}

// withoutTimes returns a copy of m with its times zeroed, and the times.
func withoutTimes(m Message) (Message, []time.Time) {
	switch m := m.(type) {
	case *ReportRequest:
		c := *m
		c.Time = time.Time{}
		return &c, []time.Time{m.Time}
	case *ReportBatchRequest:
		if m.Reports == nil {
			return m, nil
		}
		c := &ReportBatchRequest{Reports: make([]ReportRequest, len(m.Reports))}
		times := make([]time.Time, len(m.Reports))
		for i, r := range m.Reports {
			times[i] = r.Time
			r.Time = time.Time{}
			c.Reports[i] = r
		}
		return c, times
	}
	return m, nil
}

// TestRoundTripSeeds runs the seed corpus through plain `go test` with
// many more draws per type than one fuzz execution.
func TestRoundTripSeeds(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		rnd := randx.New(seed, 0x3142)
		for _, mt := range messageTypes {
			orig := gen{rnd: rnd}.message(mt.name)
			checkRoundTrip(t, mt.name, orig, mt.new)
			if hasJSON(orig) {
				checkJSON(t, mt.name, gen{rnd: rnd, wide: true}.message(mt.name), mt.new)
			}
		}
	}
}

// FuzzDecodeArbitrary throws raw bytes at every message decoder, binary
// and JSON. A decoder must never panic or over-allocate. When the binary
// decoder accepts the input, re-encoding the decoded value must produce
// a frame that decodes to the same value again (byte-compared through a
// second encode, which also holds for NaN floats where DeepEqual would
// not). The JSON leg is differential: DecodeJSON may accept only what
// encoding/json accepts (strictly for requests, as the edge read them
// before, plainly for responses), with an equal value, and may reject
// what encoding/json accepts only for one of its four deliberate
// reasons; an accepted value must re-encode to json.Marshal's bytes,
// stably.
func FuzzDecodeArbitrary(f *testing.F) {
	for _, mt := range messageTypes {
		rnd := randx.New(7, 0x3142)
		f.Add(Encode(gen{rnd: rnd}.message(mt.name)))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	for _, mt := range messageTypes {
		rnd := randx.New(7, 0x3142)
		if m := (gen{rnd: rnd}).message(mt.name); hasJSON(m) {
			js, err := json.Marshal(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(js)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mt := range messageTypes {
			m := mt.new()
			if err := Decode(data, m); err != nil {
				continue
			}
			first := Encode(m)
			m2 := mt.new()
			if err := Decode(first, m2); err != nil {
				t.Fatalf("%s: re-decode of canonical frame failed: %v", mt.name, err)
			}
			if second := Encode(m2); !bytes.Equal(first, second) {
				t.Fatalf("%s: canonical encoding unstable:\n first:  %x\n second: %x", mt.name, first, second)
			}
		}
		for _, mt := range messageTypes {
			if hasJSON(mt.new()) {
				checkDecodeJSON(t, mt.name, data, mt.new)
			}
		}
	})
}

// checkDecodeJSON is FuzzDecodeArbitrary's JSON leg for one message type.
func checkDecodeJSON(t *testing.T, name string, data []byte, fresh func() Message) {
	t.Helper()
	m, ref := fresh(), fresh()
	err := DecodeJSON(data, m)
	refErr := decodeReference(data, ref)
	if err != nil {
		if refErr == nil && !deliberate(err) {
			t.Fatalf("%s: DecodeJSON rejects what encoding/json accepts: %v\n input: %q", name, err, data)
		}
		return
	}
	if refErr != nil {
		t.Fatalf("%s: DecodeJSON accepts what encoding/json rejects (%v)\n input: %q", name, refErr, data)
	}
	if !sameJSONValue(m, ref) {
		t.Fatalf("%s: DecodeJSON differs from encoding/json:\n got:  %+v\n want: %+v\n input: %q", name, m, ref, data)
	}
	first, err := AppendJSON(nil, m)
	if err != nil {
		t.Fatalf("%s: re-encoding a decoded value: %v", name, err)
	}
	if want, _ := json.Marshal(m); !bytes.Equal(first, want) {
		t.Fatalf("%s: AppendJSON differs from json.Marshal:\n got:  %s\n want: %s", name, first, want)
	}
	m2 := fresh()
	if err := DecodeJSON(first, m2); err != nil {
		t.Fatalf("%s: re-decode of %s: %v", name, first, err)
	}
	if second, _ := AppendJSON(nil, m2); !bytes.Equal(first, second) {
		t.Fatalf("%s: JSON re-encoding unstable:\n first:  %s\n second: %s", name, first, second)
	}
}

// decodeReference decodes data with encoding/json as the edge did before
// the hand-written codec: requests strictly, unknown members rejected,
// and responses plainly.
func decodeReference(data []byte, m Message) error {
	switch m.(type) {
	case *ReportRequest, *ReportBatchRequest, *AdsRequest:
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return dec.Decode(m)
	}
	return json.Unmarshal(data, m)
}

// deliberate reports whether err is one of DecodeJSON's four deliberate
// rejections of input encoding/json accepts.
func deliberate(err error) bool {
	for _, want := range []error{errTrailingData, errNoPos, errDuplicate, errFoldedKey} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestDecodeRejectsCorruption pins the error taxonomy: truncation,
// flipped payload bits, wrong version, and mismatched type each fail
// with their dedicated sentinel.
func TestDecodeRejectsCorruption(t *testing.T) {
	orig := &ReportRequest{UserID: "u1", Pos: geo.Point{X: 1, Y: 2}, Time: time.Unix(1609459200, 0).UTC()}
	frame := Encode(orig)

	for cut := 0; cut < len(frame); cut++ {
		if err := Decode(frame[:cut], &ReportRequest{}); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(frame))
		}
	}
	for i := binfmt.HeaderSize; i < len(frame); i++ {
		bad := bytes.Clone(frame)
		bad[i] ^= 0x40
		err := Decode(bad, &ReportRequest{})
		if err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit flip at %d: got %v, want checksum mismatch", i, err)
		}
	}
	if err := Decode(frame, &AdsRequest{}); !errors.Is(err, ErrType) {
		t.Fatalf("wrong message type: got %v, want ErrType", err)
	}

	// Frames with a bad version but a valid checksum: a future one, and a
	// version 1 frame, whose uvarint nanoseconds this version would
	// misread.
	for _, version := range []byte{Version + 1, 1} {
		payload := bytes.Clone(frame[binfmt.HeaderSize:])
		payload[0] = version
		if err := Decode(binfmt.AppendFrame(nil, payload), &ReportRequest{}); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", version, err)
		}
	}
	// Trailing garbage inside a checksummed payload.
	payload := append(bytes.Clone(frame[binfmt.HeaderSize:]), 0xAB)
	if err := Decode(binfmt.AppendFrame(nil, payload), &ReportRequest{}); !errors.Is(err, ErrBody) {
		t.Fatalf("trailing bytes: got %v, want ErrBody", err)
	}
	// An oversized length prefix must be rejected before any allocation.
	huge := make([]byte, binfmt.HeaderSize)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if err := Decode(huge, &ReportRequest{}); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized prefix: got %v, want ErrFrame", err)
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeAllocationBoundedByFrame: a slice count is checked against
// the smallest encoding of one element before the slice is allocated.
// A frame whose count claims one element per remaining byte — what a
// one-byte-per-element bound let through, at 56 bytes of memory per
// ReportRequest — is rejected; a frame packed with real minimal
// elements decodes in at most 4× its own size.
func TestDecodeAllocationBoundedByFrame(t *testing.T) {
	const filler = 256 << 10
	cases := []struct {
		name   string
		msg    func() Message
		prefix []byte // body bytes before the slice count
		dense  Message
	}{
		{"report_batch", func() Message { return &ReportBatchRequest{} }, nil,
			&ReportBatchRequest{Reports: make([]ReportRequest, filler/minReportBytes)}},
		{"report_batch_response", func() Message { return &ReportBatchResponse{} }, binfmt.AppendInt(nil, 0), nil},
		{"ads_response", func() Message { return &AdsResponse{} }, nil, nil},
		{"repl_delta", func() Message { return &ReplDelta{} },
			(&ReplDelta{}).appendBody(nil)[:1+1+1+16+1], // the zero fields before Tops
			&ReplDelta{Suffix: bytes.Repeat([]byte{7}, filler/2), Tops: make(profile.Profile, filler/2/17)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.msg()
			body := append([]byte{Version, m.wireType()}, tc.prefix...)
			body = binfmt.AppendUvarint(body, filler+1) // one element per byte that follows
			body = append(body, make([]byte, filler)...)
			frame := binfmt.AppendFrame(nil, body)
			var err error
			if n := allocated(func() { err = Decode(frame, m) }); n > 4*uint64(len(frame)) {
				t.Errorf("hostile count: decoding a %d-byte frame allocated %d bytes", len(frame), n)
			}
			if !errors.Is(err, ErrBody) {
				t.Errorf("hostile count: got %v, want ErrBody", err)
			}
			if tc.dense == nil {
				return
			}
			frame = Encode(tc.dense)
			if n := allocated(func() { err = Decode(frame, tc.msg()) }); n > 4*uint64(len(frame)) {
				t.Errorf("dense frame: decoding %d bytes allocated %d", len(frame), n)
			}
			if err != nil {
				t.Errorf("dense frame: %v", err)
			}
		})
	}
}

// TestBatchDecodeSharesUserID: decoding one device's 64-item batch,
// binary or JSON, allocates one user ID, which every item shares, not
// one ID per item. A binary decode allocates as often as a one-item
// batch does; a JSON decode adds only the three regrowths of its item
// slice past the eight items it holds on the stack. A batch that
// switches users still gives each run its own ID.
func TestBatchDecodeSharesUserID(t *testing.T) {
	single := &ReportBatchRequest{Reports: make([]ReportRequest, 64)}
	mixed := &ReportBatchRequest{Reports: make([]ReportRequest, 64)}
	for i := range single.Reports {
		r := ReportRequest{UserID: "device-00042", Pos: geo.Point{X: float64(i), Y: -float64(i)}, Time: time.Unix(1700000000+int64(i), 0).UTC()}
		single.Reports[i] = r
		r.UserID = fmt.Sprintf("device-%d", i/16)
		mixed.Reports[i] = r
	}
	one := &ReportBatchRequest{Reports: single.Reports[:1]}
	for _, codec := range []struct {
		name   string
		encode func(Message) []byte
		decode func([]byte, Message) error
		regrow float64
	}{
		{"binary", Encode, Decode, 0},
		{"json", func(m Message) []byte {
			b, err := AppendJSON(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}, DecodeJSON, 3},
	} {
		t.Run(codec.name, func(t *testing.T) {
			for _, want := range []*ReportBatchRequest{single, mixed} {
				var got ReportBatchRequest
				if err := codec.decode(codec.encode(want), &got); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(&got, want) {
					t.Fatalf("decoded batch differs from the encoded one")
				}
				for i := 1; i < len(got.Reports); i++ {
					prev, cur := got.Reports[i-1].UserID, got.Reports[i].UserID
					if shared := unsafe.StringData(prev) == unsafe.StringData(cur); shared != (prev == cur) {
						t.Errorf("items %d and %d (%q, %q): shared ID string %v", i-1, i, prev, cur, shared)
					}
				}
			}
			if raceEnabled {
				t.Skip("the race detector adds allocations of its own")
			}
			allocs := func(m *ReportBatchRequest) float64 {
				data := codec.encode(m)
				return testing.AllocsPerRun(100, func() {
					var got ReportBatchRequest
					if err := codec.decode(data, &got); err != nil {
						t.Fatal(err)
					}
				})
			}
			if n, n1 := allocs(single), allocs(one); n != n1+codec.regrow {
				t.Errorf("decoding a 64-item single-user batch: %v allocs, want a one-item batch's %v plus %v", n, n1, codec.regrow)
			}
		})
	}
}

// TestDecodeReaderStaysOnStack: Decode's binfmt.Reader does not escape
// through the Message interface, so a one-item binary batch decodes in
// three allocations: the message, which does escape through it, the
// item slice and the user ID. A reader moved to the heap makes it four.
func TestDecodeReaderStaysOnStack(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	frame := Encode(&ReportBatchRequest{Reports: []ReportRequest{
		{UserID: "device-00042", Pos: geo.Point{X: 1, Y: -1}, Time: time.Unix(1700000000, 0).UTC()},
	}})
	if n := testing.AllocsPerRun(100, func() {
		var got ReportBatchRequest
		if err := Decode(frame, &got); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Errorf("decoding a one-item batch: %v allocs, want 3", n)
	}
}

// TestTimeNormalization documents the one intentional lossy edge: a
// non-UTC time decodes to the same instant in UTC.
func TestTimeNormalization(t *testing.T) {
	loc := time.FixedZone("UTC+7", 7*3600)
	orig := &ReportRequest{UserID: "u", Time: time.Unix(1700000000, 123).In(loc)}
	var got ReportRequest
	if err := Decode(Encode(orig), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(orig.Time) {
		t.Fatalf("instant changed: %v -> %v", orig.Time, got.Time)
	}
	if got.Time.Location() != time.UTC {
		t.Fatalf("location = %v, want UTC", got.Time.Location())
	}
}

// TestFrameOverhead pins the size win the protocol exists for: a
// 64-report binary batch must be several times smaller than its JSON
// encoding.
func TestFrameOverhead(t *testing.T) {
	rnd := randx.New(1, 0xBEEF)
	batch := &ReportBatchRequest{Reports: make([]ReportRequest, 64)}
	for i := range batch.Reports {
		batch.Reports[i] = ReportRequest{
			UserID: fmt.Sprintf("user-%04d", i),
			Pos:    gen{rnd: rnd}.point(),
			Time:   gen{rnd: rnd}.time(),
		}
	}
	bin := Encode(batch)
	js, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(js)) / float64(len(bin)); ratio < 2 {
		t.Fatalf("binary batch only %.2fx smaller than JSON (%d vs %d bytes)", ratio, len(bin), len(js))
	}
	t.Logf("64-report batch: binary %d bytes, JSON %d bytes", len(bin), len(js))
}
