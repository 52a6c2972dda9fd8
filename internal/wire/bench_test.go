package wire

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/adnet"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/profile"
)

// benchReport builds one representative check-in.
func benchReport(i int) ReportRequest {
	return ReportRequest{
		UserID: fmt.Sprintf("u%05d", i),
		Pos:    geo.Point{X: 12_345.678 + float64(i), Y: -9_876.543},
		Time:   time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
	}
}

// benchBatch builds the canonical 64-check-in batch of the serving
// sweeps.
func benchBatch() *ReportBatchRequest {
	b := &ReportBatchRequest{Reports: make([]ReportRequest, 64)}
	for i := range b.Reports {
		b.Reports[i] = benchReport(i)
	}
	return b
}

// benchAds builds an ads response with ten matched creatives.
func benchAds() *AdsResponse {
	resp := &AdsResponse{
		Ads:      make([]adnet.Ad, 10),
		Reported: geo.Point{X: 100, Y: 200},
		Fetched:  10,
	}
	for i := range resp.Ads {
		resp.Ads[i] = adnet.Ad{
			ID:       fmt.Sprintf("ad%05d", i),
			Title:    fmt.Sprintf("Offer %d", i),
			Location: geo.Point{X: float64(i) * 1000, Y: 500},
		}
	}
	return resp
}

// benchEncode times one message's encode in each codec: encoding/json
// as the reflection reference, the hand-written JSON codec the serving
// path runs (ReplDelta has none), and binary. The encoded frame (or JSON
// document) size lands in the frame_bytes metric so the archive records
// the wire-size reduction next to the CPU ratio.
func benchEncode(b *testing.B, m Message) {
	b.Run("codec=encoding-json", func(b *testing.B) {
		var n int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(m)
			if err != nil {
				b.Fatal(err)
			}
			n = len(data)
		}
		b.ReportMetric(float64(n), "frame_bytes")
	})
	if hasJSON(m) {
		b.Run("codec=json", func(b *testing.B) {
			buf := make([]byte, 0, 1<<14)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = AppendJSON(buf[:0], m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "frame_bytes")
		})
	}
	b.Run("codec=binary", func(b *testing.B) {
		buf := make([]byte, 0, 1<<14)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = Append(buf[:0], m)
		}
		b.ReportMetric(float64(len(buf)), "frame_bytes")
	})
}

func benchDecode(b *testing.B, m Message, fresh func() Message) {
	jsonData, err := json.Marshal(m)
	if err != nil {
		b.Fatal(err)
	}
	binData := Encode(m)
	b.Run("codec=encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(jsonData, fresh()); err != nil {
				b.Fatal(err)
			}
		}
	})
	if hasJSON(m) {
		b.Run("codec=json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodeJSON(jsonData, fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("codec=binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Decode(binData, fresh()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWireEncodeReport(b *testing.B) {
	r := benchReport(0)
	benchEncode(b, &r)
}

func BenchmarkWireDecodeReport(b *testing.B) {
	r := benchReport(0)
	benchDecode(b, &r, func() Message { return &ReportRequest{} })
}

func BenchmarkWireEncodeBatch64(b *testing.B) {
	benchEncode(b, benchBatch())
}

func BenchmarkWireDecodeBatch64(b *testing.B) {
	benchDecode(b, benchBatch(), func() Message { return &ReportBatchRequest{} })
}

// BenchmarkWireDecodeAdsRequest times the edge's hottest decode: the ad
// request the serving benchmark's ads-table workload sends four times
// per report.
func BenchmarkWireDecodeAdsRequest(b *testing.B) {
	m := &AdsRequest{UserID: "u000123", Pos: geo.Point{X: 1200.5, Y: -310.25}, Limit: 10}
	benchDecode(b, m, func() Message { return &AdsRequest{} })
}

func BenchmarkWireEncodeAds10(b *testing.B) {
	benchEncode(b, benchAds())
}

func BenchmarkWireDecodeAds10(b *testing.B) {
	benchDecode(b, benchAds(), func() Message { return &AdsResponse{} })
}

// benchReplDelta builds a replication delta carrying n table entries
// with the engine's default 8 candidates each — the shape one merge
// round ships per changed user.
func benchReplDelta(n int) *ReplDelta {
	d := &ReplDelta{
		UserID:  "u00042",
		Version: 12345,
		BaseLen: 7,
		BaseFP:  0x1234_5678_9abc_def0,
		FullFP:  0x0fed_cba9_8765_4321,
		Tops:    make(profile.Profile, n),
		At:      time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC),
	}
	entries := make([]core.TableEntry, n)
	for i := range entries {
		e := &entries[i]
		e.Top = geo.Point{X: float64(i) * 500, Y: 250}
		e.Candidates = make([]geo.Point, 8)
		for j := range e.Candidates {
			e.Candidates[j] = geo.Point{X: float64(i*100 + j), Y: float64(j) * 33.5}
		}
		e.CreatedAt = d.At.Add(time.Duration(i) * time.Minute)
		d.Tops[i] = profile.LocationFreq{Loc: e.Top, Freq: 50 - i}
	}
	d.Suffix = core.PackTable(entries).AppendSuffix(nil, 0)
	return d
}

func BenchmarkWireEncodeReplDelta4(b *testing.B) {
	benchEncode(b, benchReplDelta(4))
}

func BenchmarkWireDecodeReplDelta4(b *testing.B) {
	benchDecode(b, benchReplDelta(4), func() Message { return &ReplDelta{} })
}
