package core

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// defaultSelectionSampleEvery is the latency-sampling period of the
// output-selection path. A selection takes a few hundred nanoseconds —
// comparable to a single clock read — so timing every request would cost
// more than the work being measured. Counters stay exact; only the
// latency histogram is sampled.
const defaultSelectionSampleEvery = 32

// engineMetrics holds the engine's telemetry handles. All fields are
// resolved once at Instrument time so the hot path never touches the
// registry.
type engineMetrics struct {
	reports          *telemetry.Counter
	tableHits        *telemetry.Counter
	nomadic          *telemetry.Counter
	budgetDenied     *telemetry.Counter
	rebuilds         *telemetry.Counter
	rebuildSeconds   *telemetry.Histogram
	selectionSeconds *telemetry.Histogram

	// sampleEvery selects every Nth table hit for latency timing; it is
	// fixed before traffic starts. tick is the shared sampling cursor.
	sampleEvery uint64
	tick        atomic.Uint64
}

// sampleStart returns a start time for this observation when it is
// selected by the sampling period, the zero time otherwise.
func (m *engineMetrics) sampleStart() time.Time {
	if m.sampleEvery <= 1 || m.tick.Add(1)%m.sampleEvery == 0 {
		return time.Now()
	}
	return time.Time{}
}

// Instrument registers the engine's runtime metrics — the live analogue
// of the paper's Tables II/III per-stage timings — with reg and starts
// recording. Counters: engine_reports_total, engine_table_hits_total,
// engine_nomadic_total, engine_budget_denied_total,
// engine_rebuilds_total. Histograms: engine_rebuild_seconds,
// engine_selection_seconds. Gauges (computed from the engine's O(1)
// stats, see Stats): engine_users, engine_protected_tops,
// engine_candidates. Safe to call while serving; per-observation cost is
// a few atomic adds.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	m := &engineMetrics{
		reports:          reg.Counter("engine_reports_total", "Check-ins ingested by the location management module."),
		tableHits:        reg.Counter("engine_table_hits_total", "Ad requests answered from the permanent obfuscation table."),
		nomadic:          reg.Counter("engine_nomadic_total", "Ad requests answered with fresh nomadic noise."),
		budgetDenied:     reg.Counter("engine_budget_denied_total", "Nomadic requests refused because the privacy budget was exhausted."),
		rebuilds:         reg.Counter("engine_rebuilds_total", "Profile rebuilds (window rollovers and forced)."),
		rebuildSeconds:   reg.Histogram("engine_rebuild_seconds", "Profile rebuild duration (clustering + obfuscation), the live Table II.", nil),
		selectionSeconds: reg.Histogram("engine_selection_seconds", "Posterior output selection duration (sampled), the live Table III.", nil),
		sampleEvery:      defaultSelectionSampleEvery,
	}
	reg.GaugeFunc("engine_users", "Users known to the engine.", func() float64 {
		return float64(e.nUsers.Load())
	})
	reg.GaugeFunc("engine_protected_tops", "Top locations recorded in permanent obfuscation tables.", func() float64 {
		return float64(e.nTops.Load())
	})
	reg.GaugeFunc("engine_candidates", "Obfuscated candidates recorded across all tables.", func() float64 {
		return float64(e.nCandidates.Load())
	})
	reg.GaugeFunc("core_resident_users", "Users whose state is resident in memory (engine_users minus the spilled cold tier).", func() float64 {
		return float64(e.nResident.Load())
	})
	reg.CounterFunc("core_evictions_total", "Users evicted from the resident tier into spill files.", func() uint64 {
		return e.nEvictions.Load()
	})
	reg.CounterFunc("core_faultins_total", "Spilled users faulted back into residency.", func() uint64 {
		return e.nFaultIns.Load()
	})
	reg.CounterFunc("core_spill_errors_total", "Eviction attempts that failed (the user stayed resident).", func() uint64 {
		return e.nSpillErrs.Load()
	})
	e.met.Store(m)
}

// EngineStats is a point-in-time aggregate of the engine's per-user
// state, maintained with atomic counters on report/rebuild so reading it
// is O(1) — no walk over users or tables.
type EngineStats struct {
	// Users is the number of users the engine has seen.
	Users int
	// ProtectedTops is the number of top locations recorded in permanent
	// obfuscation tables across all users.
	ProtectedTops int
	// Candidates is the total number of obfuscated candidates recorded
	// across all tables.
	Candidates int
}

// Stats returns the engine-wide aggregate counts.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Users:         int(e.nUsers.Load()),
		ProtectedTops: int(e.nTops.Load()),
		Candidates:    int(e.nCandidates.Load()),
	}
}

// noteInserts records table insertions in the engine-wide stats.
func (e *Engine) noteInserts(tops, cands int) {
	if tops == 0 {
		return
	}
	e.nTops.Add(int64(tops))
	e.nCandidates.Add(int64(cands))
}

// observeSince records elapsed time into h when the engine is
// instrumented; start is the zero time otherwise.
func observeSince(h *telemetry.Histogram, start time.Time) {
	if h != nil && !start.IsZero() {
		h.ObserveDuration(time.Since(start))
	}
}
