package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"ccam"
	"ccam/internal/netfile"
)

// The binary protocol. Both directions carry length-prefixed frames:
//
//	[0:4)  payload length n (uint32 LE, excluding the prefix itself)
//	[4:4+n) payload
//
// A request payload is
//
//	[0:4)  request id (echoed verbatim in the response, so a
//	       connection may pipeline requests and match replies
//	       out of order)
//	[4]    op code; the high bit (0x80) marks an extended header
//	[5:9)  deadline in milliseconds (uint32 LE; 0 = none) — the server
//	       bounds the query's context by it
//	[9:)   op-specific body
//
// When the op byte's high bit is set the header continues past the
// deadline (op codes never use the high bit, so a v6 peer's frames
// are decoded unchanged):
//
//	[9]     request flags (bit 0: sampled — trace the request
//	        server-side; bit 1: want-stats — return a stats block)
//	[10:18) trace id (uint64 LE; 0 = untraced)
//	[18:)   op-specific body
//
// A response payload is
//
//	[0:4)  request id
//	[4]    status code (Code); the high bit (0x80) marks a stats
//	       extension block inserted before the normal remainder
//	[5:)   op-specific body when the code is CodeOK, otherwise
//	       uint16 LE message length + message bytes
//
// The stats extension block (sent only when the request asked for it)
// is uint16 LE length + that many bytes of packed ReqStats; decoders
// must skip unknown trailing bytes inside the block, so fields can be
// appended without a version bump. It precedes the normal body or
// error message, and travels on error responses too (a shed request
// reports its Shed flag this way).
//
// All integers are little endian, matching the store's record format
// (records travel as their stored netfile image, no re-encoding).

// Op identifies a binary-protocol operation.
type Op uint8

// Binary protocol op codes. Like error codes these are stable:
// existing values never change meaning, new ops are only appended.
const (
	// OpPing is a no-op round trip (empty body both ways).
	OpPing Op = 0
	// OpFind looks up one record: body id -> record image.
	OpFind Op = 1
	// OpGetSuccessors fetches all successor records: id -> record list.
	OpGetSuccessors Op = 2
	// OpEvaluateRoute aggregates one route: id list -> aggregate.
	OpEvaluateRoute Op = 3
	// OpRangeQuery fetches records in a window: rect -> record list.
	OpRangeQuery Op = 4
	// OpHas tests presence: id -> bool byte.
	OpHas Op = 5
	// OpFindBatch looks up many records: id list -> record list.
	OpFindBatch Op = 6
	// OpEvaluateRoutes aggregates many routes: route list -> aggregates.
	OpEvaluateRoutes Op = 7
	// OpApply commits one transactional batch: op list -> applied count.
	OpApply Op = 8
	// OpQuery runs one CCAM-QL statement: flags byte + statement ->
	// JSON-encoded result.
	OpQuery Op = 9

	// NumOps is one past the highest op code: the size of a table
	// indexed by Op.
	NumOps = 10
)

// MaxFrame bounds a frame payload; a peer announcing more is treated
// as corrupt and the connection is dropped.
const MaxFrame = 16 << 20

// reqHeaderSize is the fixed request-payload prefix: id + op + deadline.
const reqHeaderSize = 9

// opExtFlag on the op byte marks an extended (v7) request header. Op
// codes are small (0–9 today, appended slowly), so the high bit is
// free to carry framing.
const opExtFlag = 0x80

// extReqHeaderSize is the extended prefix: the v6 prefix plus a flags
// byte and a trace id.
const extReqHeaderSize = reqHeaderSize + 1 + 8

// Request flag bits (extended header byte 9).
const (
	// reqFlagSampled asks the server to trace the request: store
	// operations it runs are tagged with the trace id in the tracer
	// ring, retrievable via /traces?trace=<id>.
	reqFlagSampled = 1 << 0
	// reqFlagWantStats asks the server to return the request's
	// ReqStats in a response stats block.
	reqFlagWantStats = 1 << 1
)

// respStatsFlag on the status byte marks a stats extension block
// before the normal response remainder.
const respStatsFlag = 0x80

// ReqHeader is the decoded request prefix, v6 and v7 alike. A v6
// frame decodes with TraceID 0 and both flags false.
type ReqHeader struct {
	ID         uint32
	Op         Op
	DeadlineMS uint32
	// TraceID identifies the request across client, server and the
	// store's tracer ring (0 = untraced).
	TraceID uint64
	// Sampled asks the server to tag store-side traces with TraceID.
	Sampled bool
	// WantStats asks the server to echo the request's ReqStats.
	WantStats bool
}

// extended reports whether the header needs the v7 encoding.
func (h ReqHeader) extended() bool {
	return h.TraceID != 0 || h.Sampled || h.WantStats
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrBadRequest, len(payload), MaxFrame)
	}
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], uint32(len(payload)))
	if _, err := w.Write(pfx[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// OpenFrame appends the length prefix of a frame under construction to
// dst. The payload is appended behind it, in place, and SealFrame then
// completes the frame: one buffer, written with one call, for a server
// that builds many small replies.
func OpenFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// SealFrame fills in the prefix of frame — OpenFrame's result with the
// payload behind it.
func SealFrame(frame []byte) error {
	n := len(frame) - 4
	if n > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrBadRequest, n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	return nil
}

// ReadFrame reads one length-prefixed frame. io.EOF before the first
// prefix byte means a clean close; a short payload is
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(r, pfx[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(pfx[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds %d", ErrBadRequest, n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// FrameBuffered reports whether br already holds the whole next frame,
// so that PeekFrame on it cannot block. (A prefix PeekFrame would refuse
// counts: the refusal does not block either.)
func FrameBuffered(br *bufio.Reader) bool {
	have := br.Buffered()
	if have < 4 {
		return false
	}
	pfx, _ := br.Peek(4)
	n := binary.LittleEndian.Uint32(pfx)
	return n > MaxFrame || uint64(have) >= 4+uint64(n)
}

// PeekFrame is ReadFrame for a reader that reuses its memory: a frame
// that fits br's buffer is returned in place, valid until the caller
// consumes it with br.Discard(discard); a larger one is read into a
// slice of its own and is already consumed (discard is 0).
func PeekFrame(br *bufio.Reader) (payload []byte, discard int, err error) {
	pfx, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(pfx) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	if total := 4 + uint64(binary.LittleEndian.Uint32(pfx)); total <= uint64(br.Size()) {
		buf, err := br.Peek(int(total))
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, 0, err
		}
		return buf[4:], int(total), nil
	}
	payload, err = ReadFrame(br) // refuses a prefix above MaxFrame
	return payload, 0, err
}

// EncodeRequest builds a v6 request payload (no trace context). Peers
// that never sample stay on the short header.
func EncodeRequest(id uint32, op Op, deadlineMS uint32, body []byte) []byte {
	buf := make([]byte, reqHeaderSize+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], id)
	buf[4] = byte(op)
	binary.LittleEndian.PutUint32(buf[5:9], deadlineMS)
	copy(buf[reqHeaderSize:], body)
	return buf
}

// EncodeRequestHeader builds a request payload, choosing the v6 or
// extended encoding by whether the header carries trace context.
func EncodeRequestHeader(h ReqHeader, body []byte) []byte {
	if !h.extended() {
		return EncodeRequest(h.ID, h.Op, h.DeadlineMS, body)
	}
	buf := make([]byte, extReqHeaderSize+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], h.ID)
	buf[4] = byte(h.Op) | opExtFlag
	binary.LittleEndian.PutUint32(buf[5:9], h.DeadlineMS)
	var fl byte
	if h.Sampled {
		fl |= reqFlagSampled
	}
	if h.WantStats {
		fl |= reqFlagWantStats
	}
	buf[9] = fl
	binary.LittleEndian.PutUint64(buf[10:18], h.TraceID)
	copy(buf[extReqHeaderSize:], body)
	return buf
}

// DecodeRequestHeader splits a request payload into its header and
// body, accepting both the v6 and the extended prefix. A payload too
// short for its header still yields the request id when its four bytes
// are there, so the refusal can be addressed to the request.
func DecodeRequestHeader(payload []byte) (ReqHeader, []byte, error) {
	if len(payload) < reqHeaderSize {
		var h ReqHeader
		if len(payload) >= 4 {
			h.ID = binary.LittleEndian.Uint32(payload[0:4])
		}
		return h, nil, fmt.Errorf("%w: request payload of %d bytes", ErrBadRequest, len(payload))
	}
	h := ReqHeader{
		ID:         binary.LittleEndian.Uint32(payload[0:4]),
		Op:         Op(payload[4] &^ opExtFlag),
		DeadlineMS: binary.LittleEndian.Uint32(payload[5:9]),
	}
	if payload[4]&opExtFlag == 0 {
		return h, payload[reqHeaderSize:], nil
	}
	if len(payload) < extReqHeaderSize {
		return ReqHeader{ID: h.ID}, nil, fmt.Errorf("%w: extended request payload of %d bytes", ErrBadRequest, len(payload))
	}
	fl := payload[9]
	h.Sampled = fl&reqFlagSampled != 0
	h.WantStats = fl&reqFlagWantStats != 0
	h.TraceID = binary.LittleEndian.Uint64(payload[10:18])
	return h, payload[extReqHeaderSize:], nil
}

// DecodeRequest splits a request payload into its header fields and
// body (the pre-trace-context accessor; extended headers decode too,
// dropping the trace fields).
func DecodeRequest(payload []byte) (id uint32, op Op, deadlineMS uint32, body []byte, err error) {
	h, body, err := DecodeRequestHeader(payload)
	return h.ID, h.Op, h.DeadlineMS, body, err
}

// EncodeOKResponse builds a success response payload.
func EncodeOKResponse(id uint32, body []byte) []byte {
	return EncodeOKResponseStats(id, body, nil)
}

// EncodeErrResponse builds an error response payload for err (which
// must be non-nil).
func EncodeErrResponse(id uint32, err error) []byte {
	return EncodeErrResponseStats(id, err, nil)
}

// statsBlockSize is the packed ReqStats encoding (v1): five uint32
// counters, the WAL wait, an op count and a flags byte. Decoders
// accept longer blocks (unknown trailing fields are skipped), so
// fields can be appended without a version bump.
const statsBlockSize = 5*4 + 8 + 2 + 1

// statsFlagShed marks a request refused by admission control.
const statsFlagShed = 1 << 0

// clamp32 saturates a counter into the wire's uint32 field.
func clamp32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// appendStatsBlock packs a per-request resource account.
func appendStatsBlock(buf []byte, rs *ccam.ReqStats) []byte {
	buf = appendUint32(buf, clamp32(rs.DataReads))
	buf = appendUint32(buf, clamp32(rs.DataWrites))
	buf = appendUint32(buf, clamp32(rs.IndexPages))
	buf = appendUint32(buf, clamp32(rs.BufferHits))
	buf = appendUint32(buf, clamp32(rs.BufferMisses))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(max(rs.WALWaitNs, 0)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(min(max(rs.Ops, 0), math.MaxUint16)))
	var fl byte
	if rs.Shed {
		fl |= statsFlagShed
	}
	return append(buf, fl)
}

// DecodeStatsBlock unpacks a stats block; longer (newer) blocks decode
// their known prefix.
func DecodeStatsBlock(b []byte) (*ccam.ReqStats, error) {
	if len(b) < statsBlockSize {
		return nil, fmt.Errorf("%w: stats block of %d bytes", ErrBadRequest, len(b))
	}
	rs := &ccam.ReqStats{
		DataReads:    int64(binary.LittleEndian.Uint32(b[0:4])),
		DataWrites:   int64(binary.LittleEndian.Uint32(b[4:8])),
		IndexPages:   int64(binary.LittleEndian.Uint32(b[8:12])),
		BufferHits:   int64(binary.LittleEndian.Uint32(b[12:16])),
		BufferMisses: int64(binary.LittleEndian.Uint32(b[16:20])),
		WALWaitNs:    int64(min(binary.LittleEndian.Uint64(b[20:28]), math.MaxInt64)),
		Ops:          int64(binary.LittleEndian.Uint16(b[28:30])),
		Shed:         b[30]&statsFlagShed != 0,
	}
	return rs, nil
}

// respHeaderSizeStats is the response prefix with a stats block: id,
// status byte and the block behind its length (5 bytes without one).
const respHeaderSizeStats = 5 + 2 + statsBlockSize

// AppendResponseHeader appends the response prefix [id][code] — with
// the stats block inserted when rs is non-nil — for the caller to
// append the normal remainder to: an op body (AppendRecordBody, ...)
// behind CodeOK, AppendErrBody behind any other code. A server builds
// the replies of a pipelined connection this way, into one reused
// buffer.
func AppendResponseHeader(dst []byte, id uint32, code Code, rs *ccam.ReqStats) []byte {
	dst = appendUint32(dst, id)
	if rs == nil {
		return append(dst, byte(code))
	}
	dst = append(dst, byte(code)|respStatsFlag)
	dst = binary.LittleEndian.AppendUint16(dst, statsBlockSize)
	return appendStatsBlock(dst, rs)
}

// AppendErrBody appends the remainder of an error response: err's
// message behind its length.
func AppendErrBody(dst []byte, err error) []byte {
	msg := err.Error()
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// EncodeOKResponseStats builds a success response with the request's
// resource account attached (rs nil gives the plain form).
func EncodeOKResponseStats(id uint32, body []byte, rs *ccam.ReqStats) []byte {
	n := 5
	if rs != nil {
		n = respHeaderSizeStats
	}
	buf := make([]byte, 0, n+len(body))
	return append(AppendResponseHeader(buf, id, CodeOK, rs), body...)
}

// EncodeErrResponseStats builds an error response for err (which must
// be non-nil) with the request's resource account attached — a shed
// request reports Shed this way.
func EncodeErrResponseStats(id uint32, err error, rs *ccam.ReqStats) []byte {
	return AppendErrBody(AppendResponseHeader(nil, id, CodeOf(err), rs), err)
}

// DecodeResponse splits a response payload. For a non-OK code the
// returned error wraps the code's sentinel (errors.Is survives the
// round trip); body is nil then. A stats block, if present, is
// discarded — use DecodeResponseStats to keep it.
func DecodeResponse(payload []byte) (id uint32, body []byte, err error) {
	id, body, _, err = DecodeResponseStats(payload)
	return id, body, err
}

// DecodeResponseStats is DecodeResponse returning the stats extension
// block too (nil when the response carries none). Stats are returned
// alongside the decoded error for non-OK responses.
func DecodeResponseStats(payload []byte) (id uint32, body []byte, stats *ccam.ReqStats, err error) {
	if len(payload) < 5 {
		return 0, nil, nil, fmt.Errorf("%w: response payload of %d bytes", ErrBadRequest, len(payload))
	}
	id = binary.LittleEndian.Uint32(payload[0:4])
	cb := payload[4]
	rest := payload[5:]
	if cb&respStatsFlag != 0 {
		if len(rest) < 2 {
			return id, nil, nil, fmt.Errorf("%w: truncated stats block", ErrBadRequest)
		}
		n := int(binary.LittleEndian.Uint16(rest[0:2]))
		if len(rest) < 2+n {
			return id, nil, nil, fmt.Errorf("%w: truncated stats block", ErrBadRequest)
		}
		if stats, err = DecodeStatsBlock(rest[2 : 2+n]); err != nil {
			return id, nil, nil, err
		}
		rest = rest[2+n:]
	}
	code := Code(cb &^ respStatsFlag)
	if code == CodeOK {
		return id, rest, stats, nil
	}
	if len(rest) < 2 {
		return id, nil, stats, fmt.Errorf("%w: truncated error response", ErrBadRequest)
	}
	n := int(binary.LittleEndian.Uint16(rest[0:2]))
	if len(rest) < 2+n {
		return id, nil, stats, fmt.Errorf("%w: truncated error message", ErrBadRequest)
	}
	return id, nil, stats, RemoteError(code, string(rest[2:2+n]))
}

// --- op bodies -------------------------------------------------------

func appendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func takeUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("%w: truncated body", ErrBadRequest)
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func takeFloat64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated body", ErrBadRequest)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// EncodeIDBody encodes a single node id (OpFind, OpHas,
// OpGetSuccessors requests).
func EncodeIDBody(id ccam.NodeID) []byte {
	return appendUint32(nil, uint32(id))
}

// DecodeIDBody decodes a single node id.
func DecodeIDBody(b []byte) (ccam.NodeID, error) {
	v, rest, err := takeUint32(b)
	if err != nil || len(rest) != 0 {
		return 0, fmt.Errorf("%w: id body of %d bytes", ErrBadRequest, len(b))
	}
	return ccam.NodeID(v), nil
}

// EncodeIDsBody encodes a node-id list (OpEvaluateRoute, OpFindBatch
// requests).
func EncodeIDsBody(ids []ccam.NodeID) []byte {
	buf := appendUint32(make([]byte, 0, 4+4*len(ids)), uint32(len(ids)))
	for _, id := range ids {
		buf = appendUint32(buf, uint32(id))
	}
	return buf
}

// DecodeIDsBody decodes a node-id list, returning the remainder of the
// buffer (route lists concatenate).
func DecodeIDsBody(b []byte) ([]ccam.NodeID, []byte, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n)*4 > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: id list of %d entries in %d bytes", ErrBadRequest, n, len(b))
	}
	ids := make([]ccam.NodeID, n)
	for i := range ids {
		ids[i] = ccam.NodeID(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return ids, b[4*n:], nil
}

// EncodeRectBody encodes a query window (OpRangeQuery request).
func EncodeRectBody(r ccam.Rect) []byte {
	buf := make([]byte, 0, 32)
	buf = appendFloat64(buf, r.Min.X)
	buf = appendFloat64(buf, r.Min.Y)
	buf = appendFloat64(buf, r.Max.X)
	buf = appendFloat64(buf, r.Max.Y)
	return buf
}

// DecodeRectBody decodes a query window.
func DecodeRectBody(b []byte) (ccam.Rect, error) {
	var vals [4]float64
	var err error
	for i := range vals {
		if vals[i], b, err = takeFloat64(b); err != nil {
			return ccam.Rect{}, err
		}
	}
	if len(b) != 0 {
		return ccam.Rect{}, fmt.Errorf("%w: %d trailing bytes after rect", ErrBadRequest, len(b))
	}
	return ccam.NewRect(ccam.Point{X: vals[0], Y: vals[1]}, ccam.Point{X: vals[2], Y: vals[3]}), nil
}

// EncodeRoutesBody encodes a route list (OpEvaluateRoutes request).
func EncodeRoutesBody(routes []ccam.Route) []byte {
	buf := appendUint32(nil, uint32(len(routes)))
	for _, r := range routes {
		buf = appendUint32(buf, uint32(len(r)))
		for _, id := range r {
			buf = appendUint32(buf, uint32(id))
		}
	}
	return buf
}

// DecodeRoutesBody decodes a route list.
func DecodeRoutesBody(b []byte) ([]ccam.Route, error) {
	return decodeList(b, "routes", func(b []byte) (ccam.Route, []byte, error) { return DecodeIDsBody(b) })
}

// decodeList decodes a count and then that many elements, each taken
// off the front of the body by take; what names the list in the
// refusal of trailing bytes.
func decodeList[T any](b []byte, what string, take func([]byte) (T, []byte, error)) ([]T, error) {
	n, b, err := takeUint32(b)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, min(int(n), 1<<16))
	for i := uint32(0); i < n; i++ {
		var v T
		if v, b, err = take(b); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %s", ErrBadRequest, len(b), what)
	}
	return out, nil
}

// EncodeRecordBody encodes one record (OpFind response) as its stored
// netfile image.
func EncodeRecordBody(rec *ccam.Record) []byte {
	return netfile.EncodeRecord(rec)
}

// AppendRecordBody is EncodeRecordBody appending to dst.
func AppendRecordBody(dst []byte, rec *ccam.Record) []byte {
	return netfile.AppendRecord(dst, rec)
}

// DecodeRecordBody decodes one record.
func DecodeRecordBody(b []byte) (*ccam.Record, error) {
	rec, err := netfile.DecodeRecord(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return rec, nil
}

// AppendRecordsBody appends a record list (OpGetSuccessors,
// OpRangeQuery, OpFindBatch responses) to dst: count, then per record a
// uint32 length + stored image, each record encoded once, in place.
func AppendRecordsBody(dst []byte, recs []*ccam.Record) []byte {
	sz := 4
	for _, r := range recs {
		sz += 4 + r.EncodedSize()
	}
	dst = appendUint32(slices.Grow(dst, sz), uint32(len(recs)))
	for _, r := range recs {
		dst = appendUint32(dst, uint32(r.EncodedSize()))
		dst = netfile.AppendRecord(dst, r)
	}
	return dst
}

// DecodeRecordsBody decodes a record list.
func DecodeRecordsBody(b []byte) ([]*ccam.Record, error) {
	return decodeList(b, "records", takeRecord)
}

// takeRecord takes one length-prefixed record image off b.
func takeRecord(b []byte) (*ccam.Record, []byte, error) {
	sz, b, err := takeUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(sz) > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: record of %d bytes in %d-byte body", ErrBadRequest, sz, len(b))
	}
	rec, err := DecodeRecordBody(b[:sz])
	return rec, b[sz:], err
}

// AppendBoolBody appends a verdict byte (OpHas response) to dst.
func AppendBoolBody(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeBoolBody decodes a verdict byte.
func DecodeBoolBody(b []byte) (bool, error) {
	if len(b) != 1 || b[0] > 1 {
		return false, fmt.Errorf("%w: bool body of %d bytes", ErrBadRequest, len(b))
	}
	return b[0] == 1, nil
}

// aggSize is the encoded size of one route aggregate.
const aggSize = 4 + 3*8

// AppendAggBody appends one route aggregate (OpEvaluateRoute
// response) to buf.
func AppendAggBody(buf []byte, a ccam.RouteAggregate) []byte {
	buf = appendUint32(buf, uint32(a.Nodes))
	buf = appendFloat64(buf, a.TotalCost)
	buf = appendFloat64(buf, a.MinCost)
	buf = appendFloat64(buf, a.MaxCost)
	return buf
}

func takeAgg(b []byte) (ccam.RouteAggregate, []byte, error) {
	if len(b) < aggSize {
		return ccam.RouteAggregate{}, nil, fmt.Errorf("%w: truncated aggregate", ErrBadRequest)
	}
	var a ccam.RouteAggregate
	a.Nodes = int(binary.LittleEndian.Uint32(b))
	a.TotalCost = math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	a.MinCost = math.Float64frombits(binary.LittleEndian.Uint64(b[12:]))
	a.MaxCost = math.Float64frombits(binary.LittleEndian.Uint64(b[20:]))
	return a, b[aggSize:], nil
}

// DecodeAggBody decodes one route aggregate.
func DecodeAggBody(b []byte) (ccam.RouteAggregate, error) {
	a, rest, err := takeAgg(b)
	if err != nil {
		return a, err
	}
	if len(rest) != 0 {
		return a, fmt.Errorf("%w: %d trailing bytes after aggregate", ErrBadRequest, len(rest))
	}
	return a, nil
}

// EncodeAggsBody encodes positional aggregates (OpEvaluateRoutes
// response).
func EncodeAggsBody(aggs []ccam.RouteAggregate) []byte {
	buf := appendUint32(make([]byte, 0, 4+aggSize*len(aggs)), uint32(len(aggs)))
	for _, a := range aggs {
		buf = AppendAggBody(buf, a)
	}
	return buf
}

// DecodeAggsBody decodes positional aggregates.
func DecodeAggsBody(b []byte) ([]ccam.RouteAggregate, error) {
	return decodeList(b, "aggregates", takeAgg)
}

// queryFlagExplain in the query body's flags byte asks for the plan
// without executing, equivalent to an EXPLAIN prefix in the statement.
const queryFlagExplain = 1 << 0

// EncodeQueryBody encodes a CCAM-QL statement (OpQuery request): one
// flags byte, then the statement's UTF-8 bytes.
func EncodeQueryBody(src string, explain bool) []byte {
	buf := make([]byte, 1, 1+len(src))
	if explain {
		buf[0] |= queryFlagExplain
	}
	return append(buf, src...)
}

// DecodeQueryBody decodes a CCAM-QL statement.
func DecodeQueryBody(b []byte) (src string, explain bool, err error) {
	if len(b) < 1 {
		return "", false, fmt.Errorf("%w: empty query body", ErrBadRequest)
	}
	return string(b[1:]), b[0]&queryFlagExplain != 0, nil
}

// EncodeResultBody encodes a query result (OpQuery response). Unlike
// the fixed-layout bodies above the result is an evolving composite
// (plan, rows, aggregate, actuals), so it travels as its JSON
// encoding inside the binary frame.
func EncodeResultBody(res *ccam.Result) ([]byte, error) {
	return json.Marshal(res)
}

// DecodeResultBody decodes a query result.
func DecodeResultBody(b []byte) (*ccam.Result, error) {
	res := new(ccam.Result)
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return res, nil
}

// EncodeUint32Body encodes a counter (OpApply response: ops applied).
func EncodeUint32Body(v uint32) []byte {
	return appendUint32(nil, v)
}

// DecodeUint32Body decodes a counter.
func DecodeUint32Body(b []byte) (uint32, error) {
	v, rest, err := takeUint32(b)
	if err != nil || len(rest) != 0 {
		return 0, fmt.Errorf("%w: counter body of %d bytes", ErrBadRequest, len(b))
	}
	return v, nil
}

// Binary apply-op kind bytes (the ApplyOp.Kind names, one byte each).
const (
	binOpInsertNode  = 1
	binOpDeleteNode  = 2
	binOpInsertEdge  = 3
	binOpDeleteEdge  = 4
	binOpSetEdgeCost = 5
)

// applyKinds names the kind bytes; byte 0 is no kind.
var applyKinds = [...]string{
	binOpInsertNode:  OpInsertNode,
	binOpDeleteNode:  OpDeleteNode,
	binOpInsertEdge:  OpInsertEdge,
	binOpDeleteEdge:  OpDeleteEdge,
	binOpSetEdgeCost: OpSetEdgeCost,
}

func kindByte(kind string) (byte, error) {
	if b := slices.Index(applyKinds[:], kind); b > 0 {
		return byte(b), nil
	}
	return 0, fmt.Errorf("%w: unknown apply kind %q", ErrBadRequest, kind)
}

func kindName(b byte) (string, error) {
	if int(b) < len(applyKinds) && applyKinds[b] != "" {
		return applyKinds[b], nil
	}
	return "", fmt.Errorf("%w: unknown apply kind byte %d", ErrBadRequest, b)
}

func policyByte(name string) (byte, error) {
	p, err := ParsePolicy(name)
	return byte(p), err
}

// policyName inverts policyByte; the byte is the netfile.Policy value.
func policyName(b byte) (string, error) {
	if b > byte(ccam.Lazy) {
		return "", fmt.Errorf("%w: unknown policy byte %d", ErrBadRequest, b)
	}
	return ccam.Policy(b).String(), nil
}

// EncodeApplyBody encodes a transactional batch (OpApply request):
// count, then per op a kind byte, policy byte and kind-specific
// fields; insert-node carries a length-prefixed record image plus its
// positional predecessor costs.
func EncodeApplyBody(ops []ApplyOp) ([]byte, error) {
	buf := appendUint32(nil, uint32(len(ops)))
	for i, op := range ops {
		kb, err := kindByte(op.Kind)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		pb, err := policyByte(op.Policy)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		buf = append(buf, kb, pb)
		switch kb {
		case binOpInsertNode:
			if op.Node == nil {
				return nil, fmt.Errorf("%w: op %d: insert-node without node", ErrBadRequest, i)
			}
			img := netfile.EncodeRecord(op.Node.Record())
			buf = appendUint32(buf, uint32(len(img)))
			buf = append(buf, img...)
			buf = appendUint32(buf, uint32(len(op.PredCosts)))
			for _, c := range op.PredCosts {
				buf = appendUint32(buf, math.Float32bits(c))
			}
		case binOpDeleteNode:
			buf = appendUint32(buf, uint32(op.ID))
		case binOpInsertEdge, binOpSetEdgeCost:
			buf = appendUint32(buf, uint32(op.From))
			buf = appendUint32(buf, uint32(op.To))
			buf = appendUint32(buf, math.Float32bits(op.Cost))
		case binOpDeleteEdge:
			buf = appendUint32(buf, uint32(op.From))
			buf = appendUint32(buf, uint32(op.To))
		}
	}
	return buf, nil
}

// DecodeApplyBody decodes a transactional batch.
func DecodeApplyBody(b []byte) ([]ApplyOp, error) {
	return decodeList(b, "apply ops", takeApplyOp)
}

// takeApplyOp takes one op of a transactional batch off b.
func takeApplyOp(b []byte) (op ApplyOp, _ []byte, err error) {
	if len(b) < 2 {
		return op, nil, fmt.Errorf("%w: truncated apply op", ErrBadRequest)
	}
	kb, pb := b[0], b[1]
	b = b[2:]
	if op.Kind, err = kindName(kb); err != nil {
		return op, nil, err
	}
	if op.Policy, err = policyName(pb); err != nil {
		return op, nil, err
	}
	switch kb {
	case binOpInsertNode:
		var rec *ccam.Record
		if rec, b, err = takeRecord(b); err != nil {
			return op, nil, err
		}
		rj := RecordToJSON(rec)
		op.Node = &rj
		var nc uint32
		if nc, b, err = takeUint32(b); err != nil {
			return op, nil, err
		}
		if uint64(nc)*4 > uint64(len(b)) {
			return op, nil, fmt.Errorf("%w: %d pred costs in %d bytes", ErrBadRequest, nc, len(b))
		}
		op.PredCosts = make([]float32, nc)
		for j := range op.PredCosts {
			op.PredCosts[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*j:]))
		}
		b = b[4*nc:]
	case binOpDeleteNode:
		var v uint32
		if v, b, err = takeUint32(b); err != nil {
			return op, nil, err
		}
		op.ID = ccam.NodeID(v)
	case binOpInsertEdge, binOpSetEdgeCost, binOpDeleteEdge:
		var from, to uint32
		if from, b, err = takeUint32(b); err != nil {
			return op, nil, err
		}
		if to, b, err = takeUint32(b); err != nil {
			return op, nil, err
		}
		op.From, op.To = ccam.NodeID(from), ccam.NodeID(to)
		if kb != binOpDeleteEdge {
			var c uint32
			if c, b, err = takeUint32(b); err != nil {
				return op, nil, err
			}
			op.Cost = math.Float32frombits(c)
		}
	}
	return op, b, nil
}
