package privlocad

// Serving-path microbenchmarks: per-call cost of the engine's online
// operations with -benchmem, comparing the batch ingestion path against
// N single reports (allocs/op) and the lock-striped shards against a
// single global stripe (parallel ns/op). Run them with
//
//	go test -run '^$' -bench 'Engine' -benchmem .
//
// while working; the end-to-end serving benchmark is the bench/ module.

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/geoind"
	"repro/internal/randx"
)

func benchServingEngine(b *testing.B, shards int) *core.Engine {
	b.Helper()
	mech, err := geoind.NewNFoldGaussian(geoind.Params{Radius: 500, Epsilon: 1, Delta: 0.01, N: 10})
	if err != nil {
		b.Fatal(err)
	}
	nomadic, err := geoind.NewPlanarLaplace(math.Log(4), 200)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.NewEngine(core.Config{
		Mechanism:        mech,
		NomadicMechanism: nomadic,
		Seed:             1,
		Shards:           shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

const (
	benchUsers = 256
	benchPos   = 1024
	// benchResetEvery caps the pending check-in slices: long -benchtime
	// runs replace the engine periodically so memory stays bounded
	// without the swap cost showing up in the per-op numbers.
	benchResetEvery = 1 << 20
)

func benchUserIDs() []string {
	ids := make([]string, benchUsers)
	for i := range ids {
		ids[i] = fmt.Sprintf("u%05d", i)
	}
	return ids
}

func benchPositions() []geo.Point {
	rnd := randx.New(1, 0xBE7C4)
	pts := make([]geo.Point, benchPos)
	for i := range pts {
		pts[i] = geo.Point{X: rnd.Float64() * 40_000, Y: rnd.Float64() * 30_000}
	}
	return pts
}

// BenchmarkEngineReport is the single check-in ingest path: one shard
// lock, one pending append.
func BenchmarkEngineReport(b *testing.B) {
	e := benchServingEngine(b, core.DefaultShards)
	users, pts := benchUserIDs(), benchPositions()
	at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchResetEvery == benchResetEvery-1 {
			b.StopTimer()
			e = benchServingEngine(b, core.DefaultShards)
			b.StartTimer()
		}
		if err := e.Report(users[i%benchUsers], pts[i%benchPos], at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReportBatch ingests size check-ins per op through
// ReportBatch; divide allocs/op by size for the per-check-in cost.
func BenchmarkEngineReportBatch(b *testing.B) {
	for _, size := range []int{16, 64} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			e := benchServingEngine(b, core.DefaultShards)
			users, pts := benchUserIDs(), benchPositions()
			at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
			batch := make([]core.BatchReport, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%(benchResetEvery/64) == benchResetEvery/64-1 {
					b.StopTimer()
					e = benchServingEngine(b, core.DefaultShards)
					b.StartTimer()
				}
				user := users[i%benchUsers]
				for j := range batch {
					batch[j] = core.BatchReport{UserID: user, Pos: pts[(i+j)%benchPos], At: at}
				}
				if errs := e.ReportBatch(batch); len(errs) != 0 {
					b.Fatalf("batch errors: %v", errs)
				}
			}
		})
	}
}

// BenchmarkEngineRequest is the hot ad-request path: permanent-table
// lookup plus posterior output selection.
func BenchmarkEngineRequest(b *testing.B) {
	e := benchServingEngine(b, core.DefaultShards)
	users, pts := benchUserIDs(), benchPositions()
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for i, u := range users {
		for j := 0; j < 50; j++ {
			if err := e.Report(u, pts[(i*50+j)%benchPos], base.Add(time.Duration(j)*time.Hour)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.RebuildAll(base.Add(100*time.Hour), 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Request(users[i%benchUsers], pts[i%benchPos]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReportParallel measures contention on the user map:
// shards=1 is the pre-PR-4 single global stripe, shards=64 the striped
// layout. Distinct users land on distinct stripes, so the parallel
// speedup is the tentpole's contention win (single-core machines will
// show ~1x; see README).
func BenchmarkEngineReportParallel(b *testing.B) {
	for _, shards := range []int{1, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchServingEngine(b, shards)
			users, pts := benchUserIDs(), benchPositions()
			at := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rnd := randx.New(uint64(worker.Add(1)), 0x9A11E7)
				i := 0
				for pb.Next() {
					u := users[rnd.IntN(benchUsers)]
					if err := e.Report(u, pts[i%benchPos], at); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}
