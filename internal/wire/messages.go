package wire

import (
	"time"

	"repro/internal/adnet"
	"repro/internal/binfmt"
	"repro/internal/geo"
)

// The serving-path message types. These are the canonical definitions:
// internal/edge aliases them (type ReportRequest = wire.ReportRequest)
// so the HTTP layer's exported API is unchanged while both codecs share
// one struct per message. Each message has its binary encoding
// (appendBody/readBody) and its JSON one (appendJSON/readJSON, json.go);
// the JSON tags name the members, and the fuzz tests hold the JSON
// methods to what encoding/json does with those tags.

// ReportRequest is the body of POST /v1/report.
type ReportRequest struct {
	UserID string    `json:"user_id"`
	Pos    geo.Point `json:"pos"`
	// Time is optional; zero means "now" at the edge.
	Time time.Time `json:"time,omitempty"`
}

func (*ReportRequest) wireType() byte { return typeReport }

// minReportBytes is the smallest encoded ReportRequest: a one-byte user
// ID length, the position and the time's flag byte.
const minReportBytes = 1 + 16 + 1

func (m *ReportRequest) appendBody(dst []byte) []byte {
	dst = binfmt.AppendString(dst, m.UserID)
	dst = binfmt.AppendPoint(dst, m.Pos)
	return binfmt.AppendTime(dst, m.Time)
}

func (m *ReportRequest) readBody(r binfmt.Reader) binfmt.Reader {
	m.readItem(&r, "")
	return r
}

// readItem reads a report whose user ID shares prevID's string, without
// allocating, when the two are equal.
func (m *ReportRequest) readItem(r *binfmt.Reader, prevID string) {
	m.UserID = r.StrReuse(prevID)
	m.Pos = r.Point()
	m.Time = r.Time()
}

func (m *ReportRequest) appendJSON(e *jsonEncoder) {
	e.raw(`{"user_id":`)
	e.str(m.UserID)
	e.raw(`,"pos":`)
	e.point(m.Pos)
	// omitempty never drops a struct, so a zero time is written too.
	e.raw(`,"time":`)
	e.time(m.Time)
	e.raw("}")
}

var reportFields = []string{"user_id", "pos", "time"}

func (m *ReportRequest) readJSON(d *jsonDecoder) {
	m.readJSONItem(d, "")
}

// readJSONItem is readItem's JSON twin: it reads a report whose user ID
// shares prevID's string, without allocating, when the two are equal.
func (m *ReportRequest) readJSONItem(d *jsonDecoder, prevID string) {
	*m = ReportRequest{}
	var hasPos bool
	o := d.object(reportFields)
	for d.next(&o) {
		switch o.field {
		case 0:
			m.UserID = d.strReuse(prevID)
		case 1:
			m.Pos, hasPos = d.point()
		case 2:
			m.Time = d.time()
		}
	}
	if !hasPos {
		d.fail(errNoPos)
	}
}

// ReportBatchRequest is the body of POST /v1/report/batch: many
// check-ins in one round-trip (ad SDKs piggyback several location fixes
// per session; shipping them one HTTP call at a time wastes most of the
// serving budget on connection and framing overhead).
type ReportBatchRequest struct {
	Reports []ReportRequest `json:"reports"`
}

func (*ReportBatchRequest) wireType() byte { return typeReportBatch }

func (m *ReportBatchRequest) appendBody(dst []byte) []byte {
	dst = binfmt.AppendSliceLen(dst, m.Reports)
	for i := range m.Reports {
		dst = m.Reports[i].appendBody(dst)
	}
	return dst
}

func (m *ReportBatchRequest) readBody(r binfmt.Reader) binfmt.Reader {
	n, ok := r.SliceLen(minReportBytes)
	if !ok {
		m.Reports = nil
		return r
	}
	m.Reports = make([]ReportRequest, n)
	// One device's batch repeats one user ID: the items share its string.
	prevID := ""
	for i := range m.Reports {
		m.Reports[i].readItem(&r, prevID)
		prevID = m.Reports[i].UserID
	}
	return r
}

func (m *ReportBatchRequest) appendJSON(e *jsonEncoder) {
	e.raw(`{"reports":`)
	if m.Reports == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range m.Reports {
			if i > 0 {
				e.raw(",")
			}
			m.Reports[i].appendJSON(e)
		}
		e.raw("]")
	}
	e.raw("}")
}

var reportBatchFields = []string{"reports"}

func (m *ReportBatchRequest) readJSON(d *jsonDecoder) {
	*m = ReportBatchRequest{}
	o := d.object(reportBatchFields)
	for d.next(&o) {
		if !d.array() {
			continue
		}
		var buf [8]ReportRequest
		reports := buf[:0]
		// One device's batch repeats one user ID: the items share its
		// string.
		prevID := ""
		for i := 0; d.more(i); i++ {
			reports = append(reports, ReportRequest{})
			reports[i].readJSONItem(d, prevID)
			prevID = reports[i].UserID
		}
		m.Reports = exactCopy(reports)
	}
}

// BatchItemError is one rejected entry of a batch: Index is the entry's
// position in the request's reports array.
type BatchItemError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// ReportBatchResponse is the body returned by POST /v1/report/batch.
// Malformed or failing entries are rejected individually — the rest of
// the batch is still ingested — so clients can retry or drop exactly the
// entries that failed.
type ReportBatchResponse struct {
	Accepted int              `json:"accepted"`
	Errors   []BatchItemError `json:"errors,omitempty"`
}

func (*ReportBatchResponse) wireType() byte { return typeReportBatchResponse }

func (m *ReportBatchResponse) appendBody(dst []byte) []byte {
	dst = binfmt.AppendInt(dst, m.Accepted)
	dst = binfmt.AppendSliceLen(dst, m.Errors)
	for i := range m.Errors {
		dst = binfmt.AppendInt(dst, m.Errors[i].Index)
		dst = binfmt.AppendString(dst, m.Errors[i].Error)
	}
	return dst
}

func (m *ReportBatchResponse) readBody(r binfmt.Reader) binfmt.Reader {
	m.Accepted = r.Int()
	n, ok := r.SliceLen(2) // varint index, string length
	if !ok {
		m.Errors = nil
		return r
	}
	m.Errors = make([]BatchItemError, n)
	for i := range m.Errors {
		m.Errors[i].Index = r.Int()
		m.Errors[i].Error = r.Str()
	}
	return r
}

func (m *ReportBatchResponse) appendJSON(e *jsonEncoder) {
	e.raw(`{"accepted":`)
	e.int(m.Accepted)
	if len(m.Errors) > 0 {
		e.raw(`,"errors":[`)
		for i, be := range m.Errors {
			if i > 0 {
				e.raw(",")
			}
			e.raw(`{"index":`)
			e.int(be.Index)
			e.raw(`,"error":`)
			e.str(be.Error)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw("}")
}

var (
	reportBatchResponseFields = []string{"accepted", "errors"}
	batchItemErrorFields      = []string{"index", "error"}
)

func (m *ReportBatchResponse) readJSON(d *jsonDecoder) {
	*m = ReportBatchResponse{}
	o := d.object(reportBatchResponseFields)
	for d.next(&o) {
		if o.field == 0 {
			m.Accepted = d.int()
			continue
		}
		if !d.array() {
			continue
		}
		var buf [8]BatchItemError
		errs := buf[:0]
		for i := 0; d.more(i); i++ {
			var be BatchItemError
			eo := d.object(batchItemErrorFields)
			for d.next(&eo) {
				if eo.field == 0 {
					be.Index = d.int()
				} else {
					be.Error = d.str()
				}
			}
			errs = append(errs, be)
		}
		m.Errors = exactCopy(errs)
	}
}

// AdsRequest is the body of POST /v1/ads.
type AdsRequest struct {
	UserID string    `json:"user_id"`
	Pos    geo.Point `json:"pos"`
	Limit  int       `json:"limit,omitempty"`
}

func (*AdsRequest) wireType() byte { return typeAdsRequest }

func (m *AdsRequest) appendBody(dst []byte) []byte {
	dst = binfmt.AppendString(dst, m.UserID)
	dst = binfmt.AppendPoint(dst, m.Pos)
	return binfmt.AppendInt(dst, m.Limit)
}

func (m *AdsRequest) readBody(r binfmt.Reader) binfmt.Reader {
	m.UserID = r.Str()
	m.Pos = r.Point()
	m.Limit = r.Int()
	return r
}

func (m *AdsRequest) appendJSON(e *jsonEncoder) {
	e.raw(`{"user_id":`)
	e.str(m.UserID)
	e.raw(`,"pos":`)
	e.point(m.Pos)
	if m.Limit != 0 {
		e.raw(`,"limit":`)
		e.int(m.Limit)
	}
	e.raw("}")
}

var adsRequestFields = []string{"user_id", "pos", "limit"}

func (m *AdsRequest) readJSON(d *jsonDecoder) {
	*m = AdsRequest{}
	var hasPos bool
	o := d.object(adsRequestFields)
	for d.next(&o) {
		switch o.field {
		case 0:
			m.UserID = d.str()
		case 1:
			m.Pos, hasPos = d.point()
		case 2:
			m.Limit = d.int()
		}
	}
	if !hasPos {
		d.fail(errNoPos)
	}
}

// AdsResponse is the body returned by POST /v1/ads.
type AdsResponse struct {
	// Ads are the provider's matches filtered to the user's true AOI.
	Ads []adnet.Ad `json:"ads"`
	// Reported is the obfuscated location the edge exposed to the
	// provider (returned for transparency/debugging; it is already public
	// to the provider).
	Reported geo.Point `json:"reported"`
	// FromTable reports whether the location was served from the
	// permanent obfuscation table (top location) or freshly noised
	// (nomadic).
	FromTable bool `json:"from_table"`
	// Fetched is the number of ads returned by the provider before AOI
	// filtering.
	Fetched int `json:"fetched"`
	// Degraded reports that the provider call was abandoned at the
	// configured timeout and the empty ad list is a degraded answer, not
	// a genuine no-match.
	Degraded bool `json:"degraded,omitempty"`
}

func (*AdsResponse) wireType() byte { return typeAdsResponse }

func (m *AdsResponse) appendBody(dst []byte) []byte {
	dst = binfmt.AppendSliceLen(dst, m.Ads)
	for i := range m.Ads {
		dst = binfmt.AppendString(dst, m.Ads[i].ID)
		dst = binfmt.AppendString(dst, m.Ads[i].Title)
		dst = binfmt.AppendPoint(dst, m.Ads[i].Location)
	}
	dst = binfmt.AppendPoint(dst, m.Reported)
	dst = binfmt.AppendBool(dst, m.FromTable)
	dst = binfmt.AppendInt(dst, m.Fetched)
	return binfmt.AppendBool(dst, m.Degraded)
}

func (m *AdsResponse) readBody(r binfmt.Reader) binfmt.Reader {
	n, ok := r.SliceLen(2 + 16) // two string lengths, the location
	if !ok {
		m.Ads = nil
	} else {
		m.Ads = make([]adnet.Ad, n)
		for i := range m.Ads {
			m.Ads[i].ID = r.Str()
			m.Ads[i].Title = r.Str()
			m.Ads[i].Location = r.Point()
		}
	}
	m.Reported = r.Point()
	m.FromTable = r.Bool()
	m.Fetched = r.Int()
	m.Degraded = r.Bool()
	return r
}

func (m *AdsResponse) appendJSON(e *jsonEncoder) {
	e.raw(`{"ads":`)
	if m.Ads == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range m.Ads {
			if i > 0 {
				e.raw(",")
			}
			e.raw(`{"id":`)
			e.str(m.Ads[i].ID)
			e.raw(`,"title":`)
			e.str(m.Ads[i].Title)
			e.raw(`,"location":`)
			e.point(m.Ads[i].Location)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw(`,"reported":`)
	e.point(m.Reported)
	e.raw(`,"from_table":`)
	e.bool(m.FromTable)
	e.raw(`,"fetched":`)
	e.int(m.Fetched)
	if m.Degraded {
		e.raw(`,"degraded":true`)
	}
	e.raw("}")
}

var (
	adsResponseFields = []string{"ads", "reported", "from_table", "fetched", "degraded"}
	adFields          = []string{"id", "title", "location"}
)

func (m *AdsResponse) readJSON(d *jsonDecoder) {
	*m = AdsResponse{}
	o := d.object(adsResponseFields)
	for d.next(&o) {
		switch o.field {
		case 0:
			if !d.array() {
				continue
			}
			var buf [8]adnet.Ad
			ads := buf[:0]
			for i := 0; d.more(i); i++ {
				var ad adnet.Ad
				ao := d.object(adFields)
				for d.next(&ao) {
					switch ao.field {
					case 0:
						ad.ID = d.str()
					case 1:
						ad.Title = d.str()
					case 2:
						ad.Location, _ = d.point()
					}
				}
				ads = append(ads, ad)
			}
			m.Ads = exactCopy(ads)
		case 1:
			m.Reported, _ = d.point()
		case 2:
			m.FromTable = d.bool()
		case 3:
			m.Fetched = d.int()
		case 4:
			m.Degraded = d.bool()
		}
	}
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Users          int `json:"users"`
	ProtectedTops  int `json:"protected_tops"`
	TotalCandidate int `json:"total_candidates"`
}

func (*StatsResponse) wireType() byte { return typeStats }

func (m *StatsResponse) appendBody(dst []byte) []byte {
	dst = binfmt.AppendInt(dst, m.Users)
	dst = binfmt.AppendInt(dst, m.ProtectedTops)
	return binfmt.AppendInt(dst, m.TotalCandidate)
}

func (m *StatsResponse) readBody(r binfmt.Reader) binfmt.Reader {
	m.Users = r.Int()
	m.ProtectedTops = r.Int()
	m.TotalCandidate = r.Int()
	return r
}

func (m *StatsResponse) appendJSON(e *jsonEncoder) {
	e.raw(`{"users":`)
	e.int(m.Users)
	e.raw(`,"protected_tops":`)
	e.int(m.ProtectedTops)
	e.raw(`,"total_candidates":`)
	e.int(m.TotalCandidate)
	e.raw("}")
}

var statsResponseFields = []string{"users", "protected_tops", "total_candidates"}

func (m *StatsResponse) readJSON(d *jsonDecoder) {
	*m = StatsResponse{}
	o := d.object(statsResponseFields)
	for d.next(&o) {
		switch o.field {
		case 0:
			m.Users = d.int()
		case 1:
			m.ProtectedTops = d.int()
		case 2:
			m.TotalCandidate = d.int()
		}
	}
}

// ErrorResponse is the error envelope of every serving-path route, in
// whichever codec the client negotiated (JSON clients keep receiving
// the {"error": ...} object unchanged).
type ErrorResponse struct {
	Error string `json:"error"`
}

func (*ErrorResponse) wireType() byte { return typeError }

func (m *ErrorResponse) appendBody(dst []byte) []byte { return binfmt.AppendString(dst, m.Error) }

func (m *ErrorResponse) readBody(r binfmt.Reader) binfmt.Reader {
	m.Error = r.Str()
	return r
}

func (m *ErrorResponse) appendJSON(e *jsonEncoder) {
	e.raw(`{"error":`)
	e.str(m.Error)
	e.raw("}")
}

var errorResponseFields = []string{"error"}

func (m *ErrorResponse) readJSON(d *jsonDecoder) {
	*m = ErrorResponse{}
	o := d.object(errorResponseFields)
	for d.next(&o) {
		m.Error = d.str()
	}
}
