package core

import (
	"fmt"
	"path/filepath"

	"repro/internal/binfmt"
	"repro/internal/profile"
	"repro/internal/randx"
)

// Memory tiering: the paper's obfuscation table is *permanent* (Section
// V-C — replacing entries is exactly the longitudinal degradation the
// defense prevents), so an edge serving a long-tailed population of
// millions of users would otherwise pay RAM forever for every user it
// has ever seen. With Config.MaxResidentUsers set, the engine keeps only
// the recently-touched users resident: state beyond the cap, picked by a
// per-shard CLOCK sweep (an O(1) approximation of least recently
// touched), is serialized into a compact binary user frame — table (in
// the packed layout, see packed.go), top set, pending window, window
// start, and the exact PCG PRNG position via randx.Rand.MarshalState —
// and appended to the shard's spill file (spillfile.go) under
// Config.SpillDir. The shard's spilled map records where the frame lies.
// The next Report/Request/merge touch faults the user back in. The same
// frame is a user's record in a snapshot (persist.go), so a checkpoint
// copies spilled users as stored.
//
// Determinism is sacred: a faulted-in user draws the same PRNG stream,
// holds the same table bytes, and snapshots identically — the engine's
// TableFingerprint and Snapshot output are byte-identical across ANY
// evict/fault-in schedule, a property the audit matrix in
// shard_test.go pins at resident caps {unbounded, tiny}.
//
// The spill tier is scratch, not durability: crash recovery replays the
// WAL (whose logical records are orthogonal to residency — replaying an
// operation on a spilled user simply faults it in), and spill files are
// truncated on open and removed on Close.

// userFrameVersion versions the user frame layout.
const userFrameVersion = 1

// encodeUserFrame serializes one user's complete logical state: the
// record the spill tier stores and a snapshot carries. The caller holds
// u.mu.
func encodeUserFrame(b []byte, u *userState) ([]byte, error) {
	st, err := u.rnd.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("capturing PRNG state: %w", err)
	}
	b = append(b, userFrameVersion)
	b = binfmt.AppendString(b, st)
	b = binfmt.AppendBool(b, u.hasProfile)
	b = binfmt.AppendTime(b, u.windowStart)
	b = binfmt.AppendUvarint(b, uint64(u.nPending))
	b = append(b, u.window...)
	b = appendTops(b, u.tops)
	return u.table.appendPacked(b), nil
}

// decodeUserFrame rebuilds a userState from encodeUserFrame output.
// The state shares no memory with payload, so callers may reuse it.
func (e *Engine) decodeUserFrame(payload []byte) (*userState, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty user frame", ErrCorruptRecord)
	}
	if payload[0] != userFrameVersion {
		return nil, fmt.Errorf("%w: user frame version %d", ErrCorruptRecord, payload[0])
	}
	r := binfmt.NewReader(payload[1:])
	st := r.Bytes()
	hasProfile := r.Bool()
	windowStart := r.Time()
	np := r.Count(pointSize + 1) // a point and a time of at least 1 byte
	window := readWindow(&r, np)
	tops := readTops(&r)
	table, err := NewObfuscationTable(profile.DefaultConnectivityThreshold)
	if err != nil {
		return nil, fmt.Errorf("core: user frame table: %w", err)
	}
	table.loadPacked(&r)
	if err := finish(&r); err != nil {
		return nil, err
	}
	rnd, err := randx.NewFromState(st)
	if err != nil {
		return nil, fmt.Errorf("core: user frame PRNG state: %w", err)
	}
	return &userState{
		rnd:         rnd,
		window:      window,
		nPending:    np,
		windowStart: windowStart,
		tops:        tops,
		hasProfile:  hasProfile,
		table:       table,
	}, nil
}

// readWindow reads n check-ins from r into a window of exactly their
// length. Each is decoded and encoded again, never copied, so the
// window is canonical even when the frame is not, and Restore's
// re-encode check sees the difference. Re-encoding into a pooled buffer
// first lets the window be allocated once, at its exact length.
func readWindow(r *binfmt.Reader, n int) []byte {
	if n == 0 {
		return nil
	}
	bp := recBufPool.Get().(*[]byte)
	w := (*bp)[:0]
	for i := 0; i < n; i++ {
		pos := r.Point()
		w = binfmt.AppendTime(binfmt.AppendPoint(w, pos), r.Time())
	}
	var window []byte
	if r.Err() == nil {
		window = make([]byte, len(w))
		copy(window, w)
	}
	*bp = w[:0]
	recBufPool.Put(bp)
	return window
}

// ensureSpillLocked opens the shard's spill file on first use. The
// caller holds s.mu.
func (e *Engine) ensureSpillLocked(s *engineShard) error {
	if s.spill != nil {
		return nil
	}
	sf, err := openSpill(filepath.Join(e.cfg.SpillDir, fmt.Sprintf("spill-%04x.dat", s.idx)))
	if err != nil {
		return fmt.Errorf("core: opening shard %d spill file: %w", s.idx, err)
	}
	s.spill = sf
	if s.spilled == nil {
		s.spilled = make(map[string]spillMeta)
	}
	return nil
}

// evictLocked serializes u into the shard's spill file and drops it
// from the resident tier. The caller holds s.mu and u.mu; on success u
// is marked gone and any other holder of the pointer re-resolves
// through lockUser. On an error u stays resident and the shard's cold
// tier is unchanged.
func (e *Engine) evictLocked(s *engineShard, id string, u *userState) error {
	if err := e.ensureSpillLocked(s); err != nil {
		return err
	}
	bp := recBufPool.Get().(*[]byte)
	payload, err := encodeUserFrame((*bp)[:0], u)
	var off, n int64
	if err == nil {
		off, n, err = s.spill.append(payload, s.spilled)
	}
	*bp = payload[:0]
	recBufPool.Put(bp)
	if err != nil {
		return fmt.Errorf("core: evicting %q: %w", id, err)
	}
	s.spilled[id] = spillMeta{off: off, n: n, pending: u.nPending}
	delete(s.users, id)
	// Swap the ring's last entry into u's slot.
	last := len(s.ring) - 1
	moved := s.ring[last]
	s.ring[u.slot] = moved
	moved.u.slot = u.slot
	s.ring[last] = residentSlot{}
	s.ring = s.ring[:last]
	u.gone = true
	e.nResident.Add(-1)
	e.nEvictions.Add(1)
	return nil
}

// addResidentLocked installs u as id's resident state. With the cold
// tier on, u also joins the shard's CLOCK ring. The caller holds s.mu.
func (e *Engine) addResidentLocked(s *engineShard, id string, u *userState) {
	s.users[id] = u
	if e.tiered() {
		u.slot = len(s.ring)
		s.ring = append(s.ring, residentSlot{id: id, u: u})
	}
}

// maxKeptFaultBuf bounds the fault-in buffer a shard keeps between
// fault-ins, so that a rare huge user frame is not held for good.
const maxKeptFaultBuf = 1 << 20

// faultInLocked loads a spilled user back into residency from the frame
// at m, id's entry in s.spilled. The caller holds s.mu.
func (e *Engine) faultInLocked(s *engineShard, id string, m spillMeta) (*userState, error) {
	buf, payload, err := s.spill.read(s.faultBuf[:0], m)
	if err != nil {
		return nil, fmt.Errorf("core: faulting in %q: %w", id, err)
	}
	// decodeUserFrame copies everything out of payload, so the buffer
	// serves the next fault-in. One huge frame is not kept.
	s.faultBuf = buf[:0]
	if cap(buf) > maxKeptFaultBuf {
		s.faultBuf = nil
	}
	u, err := e.decodeUserFrame(payload)
	if err != nil {
		return nil, fmt.Errorf("core: faulting in %q: %w", id, err)
	}
	delete(s.spilled, id)
	s.spill.free(m)
	e.addResidentLocked(s, id, u)
	e.nResident.Add(1)
	e.nFaultIns.Add(1)
	return u, nil
}

// enforceQuotaLocked evicts residents until the shard is back under its
// quota. keep (the user the caller is about to operate on) is never
// evicted. Best-effort: victims whose locks are contended are skipped,
// and a spill error stops the sweep (the shard just stays over quota
// until the next touch). The caller holds s.mu.
func (e *Engine) enforceQuotaLocked(s *engineShard, keep *userState) {
	if e.residentQuota <= 0 {
		return
	}
	for len(s.users) > e.residentQuota {
		if !e.evictOneLocked(s, keep) {
			return
		}
	}
}

// evictOneLocked evicts one resident chosen by CLOCK (second chance):
// the shard's hand sweeps its ring, clearing the reference bit of each
// user touched since the hand last passed, and evicts the first user
// whose bit is already clear. keep is never evicted. It gives up after
// 8 busy users or two full turns without a victim. The caller holds
// s.mu.
func (e *Engine) evictOneLocked(s *engineShard, keep *userState) bool {
	busy := 0
	for steps := 2 * len(s.ring); steps > 0; steps-- {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		victim := s.ring[s.hand]
		if victim.u == keep || victim.u.ref.Swap(false) {
			s.hand++
			continue
		}
		// TryLock, never Lock: the victim's holder may be mid-operation,
		// and blocking here while holding s.mu would stall the whole
		// shard. Eviction choice never affects logical state, so skipping
		// a busy victim is always sound.
		if !victim.u.mu.TryLock() {
			if busy++; busy == 8 {
				return false
			}
			s.hand++
			continue
		}
		// The ring's last entry moves into the hand's slot, so the hand
		// stays put and inspects it next.
		err := e.evictLocked(s, victim.id, victim.u)
		victim.u.mu.Unlock()
		if err != nil {
			e.nSpillErrs.Add(1)
			return false
		}
		return true
	}
	return false
}

// viewUser returns a read-consistent view of the user's state with its
// lock held (release it via the returned func). Spilled users are
// decoded into a private transient state instead of being promoted —
// read-only paths (fingerprints, snapshots, stats endpoints) must not
// churn the resident set.
func (e *Engine) viewUser(userID string) (*userState, func(), error) {
	s, _ := e.shardFor(userID)
	for {
		s.mu.RLock()
		if u, ok := s.users[userID]; ok {
			s.mu.RUnlock()
			u.mu.Lock()
			if !u.gone {
				return u, u.mu.Unlock, nil
			}
			u.mu.Unlock()
			continue // evicted between resolve and lock; re-resolve
		}
		m, ok := s.spilled[userID]
		if !ok {
			s.mu.RUnlock()
			return nil, nil, fmt.Errorf("%w: %q", ErrUnknownUser, userID)
		}
		_, payload, err := s.spill.read(nil, m)
		s.mu.RUnlock()
		if err != nil {
			return nil, nil, fmt.Errorf("core: reading spilled %q: %w", userID, err)
		}
		u, err := e.decodeUserFrame(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("core: reading spilled %q: %w", userID, err)
		}
		return u, func() {}, nil
	}
}

// TierStats is a point-in-time view of the memory tier.
type TierStats struct {
	// Resident is the number of users whose state is in memory.
	Resident int
	// Spilled is the number of users currently in the cold tier.
	Spilled int
	// Evictions and FaultIns count tier transitions since start.
	Evictions uint64
	FaultIns  uint64
	// SpillErrors counts failed eviction attempts (the user simply
	// stayed resident).
	SpillErrors uint64
}

// TierStats returns the memory-tier counters; all O(1) atomics.
func (e *Engine) TierStats() TierStats {
	resident := e.nResident.Load()
	return TierStats{
		Resident:    int(resident),
		Spilled:     int(e.nUsers.Load() - resident),
		Evictions:   e.nEvictions.Load(),
		FaultIns:    e.nFaultIns.Load(),
		SpillErrors: e.nSpillErrs.Load(),
	}
}

// Close releases the cold tier's spill files (deleting them — spilled
// state never outlives the process; durability is the WAL's job). The
// engine must not serve after Close: spilled users fail to fault in,
// and evictions fail.
func (e *Engine) Close() error {
	var first error
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		if s.spill != nil {
			if err := s.spill.close(); err != nil && first == nil {
				first = err
			}
		}
		s.mu.Unlock()
	}
	return first
}
