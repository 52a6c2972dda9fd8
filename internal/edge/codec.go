package edge

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/wire"
)

// Content negotiation for the serving-path routes. The request body
// codec follows Content-Type; the response codec follows Accept, and
// defaults to mirroring the request so a binary client that omits
// Accept still gets binary back. Everything that is not the wire
// protocol's media type is the pre-existing JSON, so old clients (and
// plain curl) keep working against a binary-capable edge unmodified.

// Codec identifies one of the two serving-path encodings.
type Codec int

const (
	// CodecJSON is the application/json encoding, written and read by
	// internal/wire's hand-written JSON codec.
	CodecJSON Codec = iota
	// CodecBinary is the application/x-privlocad-bin encoding from
	// internal/wire.
	CodecBinary
)

// String returns the codec's metric/flag name.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// ParseCodec parses a -wire style flag value.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	}
	return CodecJSON, fmt.Errorf("edge: unknown codec %q (want json or binary)", s)
}

// requestCodec reports how the request body is encoded, from the
// Content-Type header.
func requestCodec(r *http.Request) Codec {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, wire.ContentType) {
		return CodecBinary
	}
	return CodecJSON
}

// responseCodec reports how the response should be encoded: binary when
// Accept names the wire media type, JSON when Accept names anything
// else, and the request's own codec when Accept is absent.
func responseCodec(r *http.Request) Codec {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return requestCodec(r)
	}
	if strings.Contains(accept, wire.ContentType) {
		return CodecBinary
	}
	return CodecJSON
}

// msgBufPool recycles the encode buffers of serving-path responses in
// both codecs: the serving path reuses one flat buffer per response
// instead of allocating a fresh one.
var msgBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// WriteMessage writes m with the given status in the chosen codec,
// setting Content-Type and Content-Length. A JSON body is the bytes
// json.Encoder.Encode writes, the trailing newline included; a message
// JSON cannot carry (a NaN coordinate) is answered with a 500.
func WriteMessage(w http.ResponseWriter, codec Codec, status int, m wire.Message) {
	bp := msgBufPool.Get().(*[]byte)
	buf, contentType := (*bp)[:0], wire.ContentType
	if codec == CodecJSON {
		var err error
		if buf, err = wire.AppendJSON(buf, m); err != nil {
			msgBufPool.Put(bp)
			http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
			return
		}
		buf, contentType = append(buf, '\n'), "application/json"
	} else {
		buf = wire.Append(buf, m)
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		msgBufPool.Put(bp)
	}
}

// writeCodecError writes the error envelope in the chosen codec. JSON
// clients keep receiving the {"error": ...} object byte-for-byte.
func writeCodecError(w http.ResponseWriter, codec Codec, status int, err error) {
	WriteMessage(w, codec, status, &wire.ErrorResponse{Error: err.Error()})
}

// ReadMessage decodes the request body (bounded at limit bytes) into m
// according to reqCodec, answering a 400 in respCodec on failure. Both
// codecs read through the same pooled buffer and copy their strings out
// of it. JSON goes through wire.DecodeJSON, which rejects what the
// strict encoding/json decoding did (unknown members included) plus
// trailing data, a member given twice, a key matching only by Unicode
// case folding, and a position without both coordinates.
func ReadMessage(w http.ResponseWriter, r *http.Request, reqCodec, respCodec Codec, m wire.Message, limit int64) error {
	buf, release, err := readBodyBuf(w, r, limit)
	if err != nil {
		writeCodecError(w, respCodec, http.StatusBadRequest, err)
		return err
	}
	defer release()
	if reqCodec == CodecJSON {
		err = wire.DecodeJSON(buf.Bytes(), m)
	} else {
		err = wire.Decode(buf.Bytes(), m)
	}
	if err != nil {
		err = fmt.Errorf("decoding request: %w", err)
		writeCodecError(w, respCodec, http.StatusBadRequest, err)
		return err
	}
	return nil
}

// --- server-side wrappers that feed the wire_* metric families ---

// negotiate resolves both codecs for a serving-path request and counts
// it under wire_requests_total{codec} (keyed by the response codec the
// client ends up seeing).
func (s *Server) negotiate(r *http.Request) (reqCodec, respCodec Codec) {
	reqCodec, respCodec = requestCodec(r), responseCodec(r)
	s.met.Load().wireReqs[respCodec].Inc()
	return reqCodec, respCodec
}

// readBody is ReadMessage plus the decode-error counter, keyed by the
// codec of the body that failed to parse.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, reqCodec, respCodec Codec, m wire.Message, limit int64) bool {
	if err := ReadMessage(w, r, reqCodec, respCodec, m, limit); err != nil {
		s.met.Load().wireDecodeErrs[reqCodec].Inc()
		return false
	}
	return true
}
