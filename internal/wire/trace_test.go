package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"ccam"
)

// The extended (v7) request frame is a stable wire contract; pin its
// exact bytes.
func TestGoldenExtendedRequestFrame(t *testing.T) {
	h := ReqHeader{
		ID: 0x0B, Op: OpFind, DeadlineMS: 250,
		TraceID: 0xABCD, Sampled: true, WantStats: true,
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, EncodeRequestHeader(h, EncodeIDBody(7))); err != nil {
		t.Fatal(err)
	}
	const want = "16000000" + // frame length 22
		"0b000000" + // request id 11
		"81" + // op find | extended-header bit
		"fa000000" + // deadline 250ms
		"03" + // flags: sampled | want-stats
		"cdab000000000000" + // trace id 0xABCD
		"07000000" // node id 7
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("golden extended frame mismatch:\n got %s\nwant %s", got, want)
	}
	gotH, body, err := DecodeRequestHeader(buf.Bytes()[4:])
	if err != nil || gotH != h {
		t.Fatalf("DecodeRequestHeader = (%+v, _, %v), want %+v", gotH, err, h)
	}
	if nid, err := DecodeIDBody(body); err != nil || nid != 7 {
		t.Fatalf("extended body: id=%d err=%v", nid, err)
	}
}

// A v6 frame (no trace field) must keep decoding unchanged — the op
// byte's high bit is the only discriminator.
func TestV6RequestFrameBackwardCompat(t *testing.T) {
	payload := EncodeRequest(0x0B, OpFind, 250, EncodeIDBody(7))
	h, body, err := DecodeRequestHeader(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := ReqHeader{ID: 0x0B, Op: OpFind, DeadlineMS: 250}
	if h != want {
		t.Fatalf("v6 header decoded as %+v, want %+v", h, want)
	}
	if nid, err := DecodeIDBody(body); err != nil || nid != 7 {
		t.Fatalf("v6 body: id=%d err=%v", nid, err)
	}
	// A header without trace context re-encodes to the identical v6
	// bytes: old servers keep understanding quiet clients.
	if got := EncodeRequestHeader(want, EncodeIDBody(7)); !bytes.Equal(got, payload) {
		t.Fatalf("plain header encoded as %x, want v6 bytes %x", got, payload)
	}
	// Truncated extended header errors instead of mis-slicing.
	bad := append([]byte(nil), payload[:reqHeaderSize]...)
	bad[4] |= opExtFlag
	if _, _, err := DecodeRequestHeader(bad); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("truncated extended header: %v", err)
	}
}

func TestStatsBlockRoundTrip(t *testing.T) {
	rs := &ccam.ReqStats{
		DataReads: 12, DataWrites: 3, IndexPages: 5,
		BufferHits: 10, BufferMisses: 2, WALWaitNs: 1234567, Ops: 4, Shed: true,
	}

	// OK response: stats ride ahead of the body.
	payload := EncodeOKResponseStats(0x0B, AppendBoolBody(nil, true), rs)
	id, body, got, err := DecodeResponseStats(payload)
	if err != nil || id != 0x0B {
		t.Fatalf("DecodeResponseStats = (%d, _, _, %v)", id, err)
	}
	if got == nil || *got != *rs {
		t.Fatalf("stats round trip: got %+v want %+v", got, rs)
	}
	if v, err := DecodeBoolBody(body); err != nil || !v {
		t.Fatalf("body after stats: %v err=%v", v, err)
	}

	// The same payload through the stats-unaware decoder: body intact,
	// stats dropped.
	id, body, err = DecodeResponse(payload)
	if err != nil || id != 0x0B {
		t.Fatalf("DecodeResponse = (%d, _, %v)", id, err)
	}
	if v, err := DecodeBoolBody(body); err != nil || !v {
		t.Fatalf("plain decode body: %v err=%v", v, err)
	}

	// Error response: stats travel too, and errors.Is still works — a
	// shed request reports Shed this way.
	ep := EncodeErrResponseStats(7, ccam.ErrOverloaded, &ccam.ReqStats{Shed: true})
	id, _, got, err = DecodeResponseStats(ep)
	if id != 7 || !errors.Is(err, ccam.ErrOverloaded) {
		t.Fatalf("error with stats: id=%d err=%v", id, err)
	}
	if got == nil || !got.Shed {
		t.Fatalf("shed flag lost: %+v", got)
	}

	// A longer (future) block decodes its known prefix.
	longer := append(appendStatsBlock(nil, rs), 0xFF, 0xFF)
	got2, err := DecodeStatsBlock(longer)
	if err != nil || *got2 != *rs {
		t.Fatalf("extended stats block: %+v err=%v", got2, err)
	}

	// nil stats fall back to the plain encodings byte-for-byte.
	if !bytes.Equal(EncodeOKResponseStats(1, nil, nil), EncodeOKResponse(1, nil)) {
		t.Fatal("nil-stats OK response differs from plain form")
	}
	if !bytes.Equal(EncodeErrResponseStats(1, ccam.ErrNotFound, nil), EncodeErrResponse(1, ccam.ErrNotFound)) {
		t.Fatal("nil-stats error response differs from plain form")
	}
}
