package core

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"repro/internal/binfmt"
)

// The permanence of the obfuscation table is load-bearing for privacy:
// if an edge device restarted and re-obfuscated the same top locations,
// the attacker would observe a second independent (r, ε, δ, n) release
// and the longitudinal guarantee would degrade exactly as Section III
// describes. Snapshot/Restore make the table (and the rest of the
// per-user state) durable across restarts; checkpoints carry them.
//
// A snapshot is a stream of binfmt frames, the layout WAL records,
// spill frames and wire messages share. The first frame is the header:
// the format tag, the version and the user count. One frame per user
// follows, in Users() order; its payload is the uvarint-length user ID
// followed by the user frame (encodeUserFrame), the same bytes the
// spill tier stores. So a spilled user is copied into the stream as
// stored, never decoded.

const (
	snapshotFormat  = "edge-privlocad-frames"
	snapshotVersion = 1
	// minUserRecord is the smallest framed user record: the frame header,
	// a one-byte ID length, a one-byte ID, and the version byte plus six
	// one-byte fields of an empty user frame. Restore rejects a header
	// count the rest of the stream cannot hold before sizing anything by
	// it.
	minUserRecord = binfmt.HeaderSize + 2 + 7
)

func appendSnapshotHeader(b []byte, users uint64) []byte {
	b = binfmt.AppendString(b, snapshotFormat)
	b = binfmt.AppendUvarint(b, snapshotVersion)
	return binfmt.AppendUvarint(b, users)
}

// Snapshot writes all per-user state as a frame stream (see above),
// users sorted by ID. Spilled users are copied from the cold tier
// without promoting them, so a snapshot of a memory-tiered engine is
// byte-identical to one of an untiered engine with the same history —
// eviction is invisible here.
func (e *Engine) Snapshot(w io.Writer) error {
	data, err := e.appendSnapshot(nil)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("core: writing snapshot: %w", err)
	}
	return nil
}

// appendSnapshot appends the snapshot stream to b, growing b once to
// the stream's length first. Left to append, a stream of N bytes
// allocates about 5N across its regrowths, and on a checkpointing edge
// that garbage, not the live state, set the peak RSS.
func (e *Engine) appendSnapshot(b []byte) ([]byte, error) {
	ids := e.Users()
	b = slices.Grow(b, e.snapshotLen(len(ids)))
	b = binfmt.AppendFrame(b, appendSnapshotHeader(nil, uint64(len(ids))))
	var scratch []byte
	for _, id := range ids {
		var start int
		var err error
		b, start = binfmt.BeginFrame(b)
		if b, scratch, err = e.appendUserRecord(b, scratch, id); err != nil {
			return nil, fmt.Errorf("core: snapshotting %q: %w", id, err)
		}
		b = binfmt.EndFrame(b, start)
	}
	return b, nil
}

// snapshotLen returns the length of the snapshot stream of the engine's
// users, n of them. A spilled user's record is its spill frame plus its
// ID, so the spill files' live bytes count those; a resident user is
// encoded into a scratch buffer. It only sizes a buffer: a user who
// changes between this walk and appendSnapshot's makes it inexact, not
// wrong.
func (e *Engine) snapshotLen(n int) int {
	size := binfmt.HeaderSize + len(appendSnapshotHeader(nil, uint64(n)))
	var frame []byte
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.RLock()
		for id, u := range s.users {
			u.mu.Lock()
			frame, _ = encodeUserFrame(frame[:0], u)
			u.mu.Unlock()
			size += binfmt.HeaderSize + strLen(id) + len(frame)
		}
		for id := range s.spilled {
			size += strLen(id)
		}
		if s.spill != nil {
			size += int(s.spill.liveBytes())
		}
		s.mu.RUnlock()
	}
	return size
}

// strLen is len(binfmt.AppendString(nil, s)).
func strLen(s string) int {
	var buf [10]byte
	return len(binfmt.AppendUvarint(buf[:0], uint64(len(s)))) + len(s)
}

// appendUserRecord appends id's record payload to rec: the ID, then its
// user frame. A resident user is encoded under its lock. A spilled
// user's frame is copied as the spill file reads it (the read has
// checked its CRC), so a snapshot faults nobody in and decodes nothing
// cold. scratch is the buffer for that read, returned for reuse. A user
// evicted between the shard lookup and its lock is looked up again, so
// a user evicted or faulted in between the ID walk and this read is
// captured exactly once.
func (e *Engine) appendUserRecord(rec, scratch []byte, id string) ([]byte, []byte, error) {
	rec = binfmt.AppendString(rec, id)
	s, _ := e.shardFor(id)
	for {
		s.mu.RLock()
		if u, ok := s.users[id]; ok {
			s.mu.RUnlock()
			u.mu.Lock()
			if u.gone {
				u.mu.Unlock()
				continue // evicted between resolve and lock; re-resolve
			}
			rec, err := encodeUserFrame(rec, u)
			u.mu.Unlock()
			return rec, scratch, err
		}
		m, ok := s.spilled[id]
		if !ok {
			s.mu.RUnlock()
			return nil, scratch, ErrUnknownUser
		}
		buf, payload, err := s.spill.read(scratch[:0], m)
		s.mu.RUnlock()
		if err != nil {
			return nil, scratch, err
		}
		return append(rec, payload...), buf[:0], nil
	}
}

// Restore loads a snapshot produced by Snapshot into a fresh engine.
// Restored users keep their permanent obfuscation tables verbatim —
// the property that preserves the longitudinal guarantee across
// restarts. Restoring over existing users is rejected, and so is any
// stream Snapshot could not have written: Restore accepts exactly the
// canonical encoding, users in ascending ID order, so a re-Snapshot of
// the restored engine reproduces the input byte for byte.
//
// Restore is all-or-nothing: every user is staged (and validated) off
// to the side first, then committed in one step under all shard locks.
// A failure anywhere — a corrupt user mid-stream, a short stream, a
// duplicate — leaves the engine exactly as it was, instead of leaking
// the users before the failure point into the engine with the
// aggregate counters already bumped.
func (e *Engine) Restore(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading snapshot: %w", err)
	}
	header, rest, err := binfmt.SplitFrame(data)
	if err != nil {
		return fmt.Errorf("core: reading %s snapshot header: %w", snapshotFormat, err)
	}
	hr := binfmt.NewReader(header)
	format := hr.Str()
	version := hr.Uvarint()
	users := hr.Uvarint()
	switch {
	case hr.Err() != nil:
		return fmt.Errorf("core: snapshot header: %w: %v", ErrCorruptRecord, hr.Err())
	case format != snapshotFormat:
		return fmt.Errorf("core: snapshot format %q, want %q", format, snapshotFormat)
	case version != snapshotVersion:
		return fmt.Errorf("core: snapshot version %d not supported", version)
	case users > uint64(len(rest)/minUserRecord):
		return fmt.Errorf("core: snapshot header claims %d users; the %d bytes after it cannot hold them", users, len(rest))
	case !bytes.Equal(header, appendSnapshotHeader(nil, users)):
		return fmt.Errorf("%w: non-canonical snapshot header", ErrCorruptRecord)
	}

	type stagedUser struct {
		id string
		u  *userState
	}
	staged := make([]stagedUser, 0, users)
	var stagedTops, stagedCandidates int64
	var canon []byte
	for len(rest) > 0 {
		var payload []byte
		if payload, rest, err = binfmt.SplitFrame(rest); err != nil {
			return fmt.Errorf("core: snapshot user %d: %w", len(staged), err)
		}
		ur := binfmt.NewReader(payload)
		id := ur.Str()
		if ur.Err() != nil {
			return fmt.Errorf("core: snapshot user %d: %w: %v", len(staged), ErrCorruptRecord, ur.Err())
		}
		frame := ur.Rest()
		if id == "" {
			return fmt.Errorf("core: snapshot user %d has empty id", len(staged))
		}
		if n := len(staged); n > 0 {
			switch prev := staged[n-1].id; {
			case id == prev:
				return fmt.Errorf("core: snapshot user %q appears twice", id)
			case id < prev:
				return fmt.Errorf("core: snapshot user %q follows %q, out of order", id, prev)
			}
		}
		u, err := e.decodeUserFrame(frame)
		if err != nil {
			return fmt.Errorf("core: restoring %q: %w", id, err)
		}
		if canon, err = encodeUserFrame(canon[:0], u); err != nil {
			return fmt.Errorf("core: restoring %q: %w", id, err)
		}
		if !bytes.Equal(canon, frame) {
			return fmt.Errorf("core: restoring %q: %w: non-canonical user frame", id, ErrCorruptRecord)
		}
		// Aggregate counts are tallied locally and only applied at
		// commit: bumping e.nTops here would corrupt the counters when a
		// later user fails the restore.
		stagedTops += int64(len(u.table.tops))
		stagedCandidates += int64(len(u.table.arena))
		staged = append(staged, stagedUser{id: id, u: u})
	}
	if uint64(len(staged)) != users {
		return fmt.Errorf("core: snapshot header says %d users, stream had %d", users, len(staged))
	}

	// Commit. All shard locks are taken in index order (no other path
	// holds two shards at once, so this cannot deadlock) and the
	// conflict check — against both tiers — runs before the first
	// install.
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	var conflict error
	for _, su := range staged {
		s, _ := e.shardFor(su.id)
		_, resident := s.users[su.id]
		_, spilled := s.spilled[su.id]
		if resident || spilled {
			conflict = fmt.Errorf("core: snapshot user %q already present in engine", su.id)
			break
		}
	}
	if conflict == nil {
		for _, su := range staged {
			s, _ := e.shardFor(su.id)
			e.addResidentLocked(s, su.id, su.u)
		}
		e.nUsers.Add(int64(len(staged)))
		e.nResident.Add(int64(len(staged)))
		e.nTops.Add(stagedTops)
		e.nCandidates.Add(stagedCandidates)
	}
	for i := range e.shards {
		e.shards[i].mu.Unlock()
	}
	if conflict != nil {
		return conflict
	}
	// A restore can overshoot a resident cap by the whole snapshot; trim
	// back down before serving resumes (shard by shard, after the global
	// commit released the other locks).
	if e.residentQuota > 0 {
		for i := range e.shards {
			s := &e.shards[i]
			s.mu.Lock()
			e.enforceQuotaLocked(s, nil)
			s.mu.Unlock()
		}
	}
	return nil
}
