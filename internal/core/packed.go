package core

import (
	"math"

	"repro/internal/binfmt"
	"repro/internal/geo"
)

// The packed layout is the one encoding of a table suffix, entries
// [k, n) of a table:
//
//	uvarint entry count (n-k)
//	per entry: top point, 8-byte little-endian created-nanos, uvarint
//	           candidate count
//	the candidates of those entries in entry order, 16-byte points
//
// A user frame stores the whole table (k = 0), and loading it is array
// reconstruction, not per-entry re-insertion. Replication ships the
// suffix a replica is missing, and the replica's WAL import record
// stores the bytes it received verbatim. The headers of [k, n) are
// contiguous and so are the candidates after entry k-1's, so a suffix
// is cut from a packed table without re-encoding it
// (PackedTable.AppendSuffix).

const (
	pointSize = 16
	// packedHeaderFloor is the smallest encoded entry header: a top,
	// the created-nanos and a one-byte candidate count.
	packedHeaderFloor = pointSize + 8 + 1
)

// appendPackedLocked appends the whole table in the packed layout.
// A non-nil at has len(t.tops)+1 slots, and at[i].hdr receives the
// offset in b of entry i's header, the last slot's the offset of the
// candidate arena. The caller holds t.mu.
func (t *ObfuscationTable) appendPackedLocked(b []byte, at []packedAt) []byte {
	b = binfmt.AppendUvarint(b, uint64(len(t.tops)))
	for i := range t.tops {
		if at != nil {
			at[i].hdr = len(b)
		}
		b = binfmt.AppendPoint(b, t.tops[i])
		b = binfmt.AppendUint64(b, uint64(t.createdNs[i]))
		b = binfmt.AppendUvarint(b, uint64(len(t.candsLocked(i))))
	}
	if at != nil {
		at[len(t.tops)].hdr = len(b)
	}
	for _, p := range t.arena {
		b = binfmt.AppendPoint(b, p)
	}
	return b
}

// appendPacked is appendPackedLocked under the table's read lock.
func (t *ObfuscationTable) appendPacked(b []byte) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.appendPackedLocked(b, nil)
}

// loadPacked fills an empty table from a packed suffix read from r. The
// spatial index stays unbuilt: a loaded table is cold by definition and
// builds its index on demand (see Lookup).
func (t *ObfuscationTable) loadPacked(r *binfmt.Reader) {
	n := r.Count(packedHeaderFloor)
	if n == 0 {
		return
	}
	t.tops = make([]geo.Point, 0, n)
	t.createdNs = make([]int64, 0, n)
	t.offs = make([]uint32, 0, n)
	var total uint64
	for i := 0; i < n; i++ {
		t.tops = append(t.tops, r.Point())
		t.createdNs = append(t.createdNs, int64(r.Uint64()))
		cn := r.Uvarint()
		if cn > uint64(math.MaxUint32)-total {
			r.Failf("table arena of more than %d candidates", uint64(math.MaxUint32))
			return
		}
		t.offs = append(t.offs, uint32(total))
		total += cn
	}
	m := r.Items(total, pointSize)
	t.arena = make([]geo.Point, 0, m)
	for j := 0; j < m; j++ {
		t.arena = append(t.arena, r.Point())
	}
}

// PackedTable is a whole table in the packed layout, encoded once, with
// what replication needs to ship any suffix of it: where each entry's
// header and candidates start, so AppendSuffix cuts bytes instead of
// re-encoding entries, and the fingerprint chain naming each prefix.
type PackedTable struct {
	data []byte
	at   []packedAt // entry i's at[i], then the table end's
}

// packedAt locates one entry of a PackedTable, or its end: where the
// entry's header starts in the data (at the end, where the candidate
// arena starts), its first candidate's index in the arena (the arena's
// length), and the fingerprint chain of the entries before it.
type packedAt struct {
	hdr, cand int
	fp        uint64
}

// PackTable packs entries in their order, as Engine.Table returns a
// table's rows, into the bytes a user frame holds for that table.
func PackTable(entries []TableEntry) *PackedTable {
	var t ObfuscationTable
	t.appendNew(entries)
	return t.packLocked()
}

// packLocked packs the whole table. The caller holds t.mu (either side).
func (t *ObfuscationTable) packLocked() *PackedTable {
	n := len(t.tops)
	p := &PackedTable{at: make([]packedAt, n+1)}
	// The capacity bounds the encoding: a 10-byte count, per entry a
	// header of at most 34 bytes, then the arena.
	p.data = t.appendPackedLocked(make([]byte, 0, 10+34*n+pointSize*len(t.arena)), p.at)
	p.at[0].fp = FingerprintSeed
	for i := 0; i < n; i++ {
		p.at[i].cand = int(t.offs[i])
		p.at[i+1].fp = t.foldEntryLocked(p.at[i].fp, i)
	}
	p.at[n].cand = len(t.arena)
	return p
}

// PackedTable packs the user's table.
func (e *Engine) PackedTable(userID string) (*PackedTable, error) {
	u, release, err := e.viewUser(userID)
	if err != nil {
		return nil, err
	}
	defer release()
	u.table.mu.RLock()
	defer u.table.mu.RUnlock()
	return u.table.packLocked(), nil
}

// Len returns the number of entries.
func (p *PackedTable) Len() int { return len(p.at) - 1 }

// Candidates returns the number of candidates across all entries.
func (p *PackedTable) Candidates() int { return p.at[p.Len()].cand }

// Fingerprint returns the fingerprint chain of entries [0, k):
// FingerprintSeed at 0 and FingerprintTable of the whole table at Len.
func (p *PackedTable) Fingerprint(k int) uint64 { return p.at[k].fp }

// AppendSuffix appends the packed suffix of entries [k, Len()) to dst:
// a fresh count, then the two byte ranges of the packed table that hold
// those entries' headers and candidates.
func (p *PackedTable) AppendSuffix(dst []byte, k int) []byte {
	n := p.Len()
	dst = binfmt.AppendUvarint(dst, uint64(n-k))
	dst = append(dst, p.data[p.at[k].hdr:p.at[n].hdr]...)
	return append(dst, p.data[p.at[n].hdr+pointSize*p.at[k].cand:]...)
}
