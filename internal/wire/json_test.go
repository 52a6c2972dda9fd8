package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// jsonCases are the inputs the JSON codec's contract names: the four
// deliberate rejections, inputs both decoders accept, and inputs both
// reject. The fuzz corpus under testdata/fuzz/FuzzDecodeArbitrary
// carries the same inputs.
var jsonCases = []struct {
	name  string
	new   func() Message
	input string
	// reject is the deliberate rejection expected; nil means DecodeJSON
	// agrees with encoding/json, accepting or rejecting alike.
	reject error
}{
	{"trailing value", newReport, `{"user_id":"b","pos":{"x":1,"y":2}}{"user_id":"c","pos":{"x":3,"y":4}}`, errTrailingData},
	{"trailing garbage", newReport, `{"user_id":"b","pos":{"x":1,"y":2}} garbage`, errTrailingData},
	{"no pos", newReport, `{"user_id":"d"}`, errNoPos},
	{"null pos", newReport, `{"user_id":"f","pos":null}`, errNoPos},
	{"pos without y", newReport, `{"user_id":"g","pos":{"x":1}}`, errNoPos},
	{"pos with null x", newAdsRequest, `{"user_id":"g","pos":{"x":null,"y":2}}`, errNoPos},
	{"null request", newAdsRequest, `null`, errNoPos},
	{"batch item without pos", newBatch, `{"reports":[{"user_id":"a","pos":{"x":1,"y":2}},{"user_id":"b"}]}`, errNoPos},
	{"batch null item", newBatch, `{"reports":[null]}`, errNoPos},
	{"duplicate pos", newReport, `{"user_id":"h","pos":{"x":1},"pos":{"y":2}}`, errDuplicate},
	{"duplicate by case", newAdsRequest, `{"user_id":"a","USER_ID":"b","pos":{"x":1,"y":2}}`, errDuplicate},
	{"duplicate coordinate", newReport, `{"user_id":"h","pos":{"x":1,"x":2,"y":3}}`, errDuplicate},
	{"duplicate in response", newStats, `{"users":1,"users":2}`, errDuplicate},
	{"long s key", newReport, `{"uſer_id":"i","pos":{"x":1,"y":2}}`, errFoldedKey},
	{"escaped long s key", newStats, `{"u\u017fers":5}`, errFoldedKey},
	{"kelvin key", newAdsResponse, `{"fetched":1,"un\u212anown":2}`, nil},
	{"kelvin field", newReport, `{"user_id":"k","pos":{"x":1,"y":2},"Kelvin":1}`, nil},

	{"null time", newReport, `{"user_id":"a","pos":{"x":1,"y":2},"time":null}`, nil},
	{"upper-case key", newReport, `{"USER_ID":"a","Pos":{"X":1,"y":2}}`, nil},
	{"surrogate pair", newReport, `{"user_id":"\ud83d\ude00","pos":{"x":1,"y":2}}`, nil},
	{"lone surrogate", newReport, `{"user_id":"\ud800","pos":{"x":1,"y":2}}`, nil},
	{"lone low surrogate then pair", newError, `{"error":"\udc00\ud800\ud83d\ude00\ud83dx"}`, nil},
	{"invalid UTF-8", newError, "{\"error\":\"a\xffb\xed\xa0\x80\"}", nil},
	{"escapes", newError, `{"error":"\"\\\/\b\f\n\r\t\u0041\u00e9"}`, nil},
	{"escaped key", newReport, `{"\u0075ser_id":"a","pos":{"x":1,"y":2}}`, nil},
	{"whitespace", newAdsRequest, " \t\r\n{ \"user_id\" : \"a\" , \"pos\" : { \"x\" : -0 , \"y\" : 1E+2 } } \n", nil},
	{"response unknown members", newAdsResponse, `{"ads":[{"id":"a","extra":{"k":[1,{"z":null}]}}],"new":[true,false,"s",-1.5e-3],"fetched":1}`, nil},
	{"response null members", newAdsResponse, `{"ads":[null],"reported":null,"from_table":null,"fetched":null}`, nil},
	{"null response", newStats, `null`, nil},
	{"empty errors", newBatchResponse, `{"accepted":2,"errors":[]}`, nil},
	{"time with offset", newReport, `{"user_id":"a","pos":{"x":1,"y":2},"time":"2021-03-01T10:00:00.5+05:30"}`, nil},

	{"float out of range", newReport, `{"user_id":"a","pos":{"x":1e400,"y":2}}`, nil},
	{"fractional limit", newAdsRequest, `{"user_id":"a","pos":{"x":1,"y":2},"limit":1.0}`, nil},
	{"exponent limit", newAdsRequest, `{"user_id":"a","pos":{"x":1,"y":2},"limit":1e1}`, nil},
	{"unknown request member", newReport, `{"user_id":"a","pos":{"x":1,"y":2},"bogus":true}`, nil},
	{"unknown pos member", newReport, `{"user_id":"a","pos":{"x":1,"y":2,"z":3}}`, nil},
	{"escaped time", newReport, `{"user_id":"a","pos":{"x":1,"y":2},"time":"2021-01-01T00:00:00\u005a"}`, nil},
	{"number time", newReport, `{"user_id":"a","pos":{"x":1,"y":2},"time":5}`, nil},
	{"leading zero", newStats, `{"users":01}`, nil},
	{"bad escape", newError, `{"error":"\'"}`, nil},
	{"control byte", newError, "{\"error\":\"a\x01\"}", nil},
	{"trailing comma", newAdsResponse, `{"ads":[{"id":"a"},]}`, nil},
	{"wrong type", newAdsResponse, `{"ads":{}}`, nil},
	{"empty", newStats, ``, nil},
}

func newReport() Message        { return &ReportRequest{} }
func newBatch() Message         { return &ReportBatchRequest{} }
func newBatchResponse() Message { return &ReportBatchResponse{} }
func newAdsRequest() Message    { return &AdsRequest{} }
func newAdsResponse() Message   { return &AdsResponse{} }
func newStats() Message         { return &StatsResponse{} }
func newError() Message         { return &ErrorResponse{} }

// TestDecodeJSONCases pins each named input: a deliberate rejection
// fails with its reason where encoding/json accepts, and every other
// input decodes exactly as encoding/json decodes it, or fails as it
// fails. checkDecodeJSON adds the re-encoding checks.
func TestDecodeJSONCases(t *testing.T) {
	for _, c := range jsonCases {
		t.Run(c.name, func(t *testing.T) {
			data := []byte(c.input)
			err := DecodeJSON(data, c.new())
			refErr := decodeReference(data, c.new())
			if c.reject != nil {
				if !errors.Is(err, c.reject) {
					t.Fatalf("DecodeJSON error %v, want %v", err, c.reject)
				}
				if refErr != nil {
					t.Fatalf("encoding/json rejects it too (%v): not a deliberate rejection", refErr)
				}
				return
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("DecodeJSON error %v, encoding/json error %v", err, refErr)
			}
			checkDecodeJSON(t, c.name, data, c.new)
		})
	}
}

// TestFoldedKeyRunes pins the assumption behind rejection 4: of every
// rune beyond ASCII, only U+017F and U+212A fold, in encoding/json's key
// matching (the smallest rune of its simple-fold orbit), onto an ASCII
// letter.
func TestFoldedKeyRunes(t *testing.T) {
	var got []rune
	for r := rune(utf8.RuneSelf); r <= unicode.MaxRune; r++ {
		folded := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			folded = min(folded, f)
		}
		if folded < utf8.RuneSelf {
			got = append(got, r)
		}
	}
	if len(got) != 2 || got[0] != longS || got[1] != kelvinSign {
		t.Fatalf("non-ASCII runes folding to ASCII: %U, want U+017F and U+212A", got)
	}
}

// TestDecodeJSONSkipDepth checks the skip of an unknown response member
// stops where encoding/json stops: 10,000 nested levels, counting the
// enclosing object.
func TestDecodeJSONSkipDepth(t *testing.T) {
	for _, depth := range []int{maxJSONDepth - 1, maxJSONDepth, maxJSONDepth + 1} {
		nested := strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1)
		data := []byte(`{"skipped":` + nested + `,"users":3}`)
		var got, want StatsResponse
		err := DecodeJSON(data, &got)
		refErr := json.Unmarshal(data, &want)
		if (err == nil) != (refErr == nil) || got != want {
			t.Fatalf("depth %d: DecodeJSON %+v, %v; encoding/json %+v, %v", depth, got, err, want, refErr)
		}
	}
}

// raceEnabled is set under the race detector, whose instrumentation
// allocates; allocation counts are not pinned there.
var raceEnabled bool

// TestJSONAllocs pins the allocation profile of the serving path's JSON
// hot spots: decoding an ads request allocates only its user ID, and
// encoding an ads response into a warm buffer allocates nothing.
func TestJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	req := []byte(`{"user_id":"u000123","pos":{"x":1200.5,"y":-310.25},"limit":10}`)
	var m AdsRequest
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeJSON(req, &m); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("AdsRequest decode: %v allocs, want at most 1", n)
	}
	resp := benchAds()
	buf, err := AppendJSON(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if buf, err = AppendJSON(buf[:0], resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AdsResponse encode: %v allocs, want 0", n)
	}
	if want, _ := json.Marshal(resp); !bytes.Equal(buf, want) {
		t.Fatalf("AppendJSON = %s, want %s", buf, want)
	}
}
