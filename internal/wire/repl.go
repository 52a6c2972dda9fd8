package wire

import (
	"time"

	"repro/internal/binfmt"
	"repro/internal/profile"
)

// ReplDelta is the replication-path message: one merge round's update
// for one user, shipped obfuscator → replica. Obfuscation tables are
// append-only (first writer wins), so any replica's table is a prefix of
// the obfuscator's; a delta therefore carries only the suffix the
// replica is missing, content-addressed by internal/core's fingerprint
// chain:
//
//   - BaseLen/BaseFP name the prefix the delta extends: the replica
//     must hold exactly BaseLen entries hashing to BaseFP for Suffix to
//     apply.
//   - FullFP is the chain value after appending Suffix — the byte
//     identity the replica must land on.
//   - BaseLen == 0 (BaseFP the empty table's fingerprint) is a full
//     snapshot: the fallback when a replica's content proof fails.
//
// Suffix is opaque here: it is internal/core's packed table layout, the
// bytes a user frame holds for a whole table, cut at BaseLen. The
// replica imports it as received, and its WAL stores it verbatim.
//
// Unlike the serving messages, deltas never travel as JSON in
// production — the struct still carries tags so the codec-equivalence
// fuzzers can cross-check the binary encoding against encoding/json.
type ReplDelta struct {
	UserID string `json:"user_id"`
	// Version is the journal version this delta brings the replica to.
	Version uint64 `json:"version"`
	BaseLen int    `json:"base_len"`
	BaseFP  uint64 `json:"base_fp"`
	FullFP  uint64 `json:"full_fp"`
	// Suffix is the packed table suffix of the obfuscator's entries
	// [BaseLen, BaseLen+count). A packed suffix is never empty (it
	// starts with its count), so an empty Suffix decodes as nil.
	Suffix []byte `json:"suffix"`
	// Tops is the merged η-frequent top set installed with the round.
	Tops profile.Profile `json:"tops"`
	// At is the merge round's timestamp.
	At time.Time `json:"at"`
}

func (*ReplDelta) wireType() byte { return typeReplDelta }

func (m *ReplDelta) appendBody(dst []byte) []byte {
	dst = binfmt.AppendString(dst, m.UserID)
	dst = binfmt.AppendUvarint(dst, m.Version)
	dst = binfmt.AppendInt(dst, m.BaseLen)
	dst = binfmt.AppendUint64(dst, m.BaseFP)
	dst = binfmt.AppendUint64(dst, m.FullFP)
	dst = binfmt.AppendString(dst, m.Suffix)
	dst = binfmt.AppendSliceLen(dst, m.Tops)
	for i := range m.Tops {
		dst = binfmt.AppendPoint(dst, m.Tops[i].Loc)
		dst = binfmt.AppendInt(dst, m.Tops[i].Freq)
	}
	return binfmt.AppendTime(dst, m.At)
}

func (m *ReplDelta) readBody(r binfmt.Reader) binfmt.Reader {
	m.UserID = r.Str()
	m.Version = r.Uvarint()
	m.BaseLen = r.Int()
	m.BaseFP = r.Uint64()
	m.FullFP = r.Uint64()
	m.Suffix = r.Bytes()
	n, ok := r.SliceLen(16 + 1) // the location, a varint frequency
	if !ok {
		m.Tops = nil
	} else {
		m.Tops = make(profile.Profile, n)
		for i := range m.Tops {
			m.Tops[i].Loc = r.Point()
			m.Tops[i].Freq = r.Int()
		}
	}
	m.At = r.Time()
	return r
}
