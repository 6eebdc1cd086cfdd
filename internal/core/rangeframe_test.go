package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// buildRangeFull encodes a valid range-full frame (tag included) for count
// pages of the given content starting at start.
func buildRangeFull(t testing.TB, start uint64, pages [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeRangeHeader(&buf, msgRangeFull, start, len(pages)); err != nil {
		t.Fatal(err)
	}
	sums := make([]checksum.Sum, len(pages))
	for i, p := range pages {
		sums[i] = checksum.MD5.Page(p)
	}
	if err := writeRangeSums(&buf, sums); err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		buf.Write(p)
	}
	return buf.Bytes()
}

// buildRangeVar encodes a range-full-z/range-delta frame with arbitrary
// per-page lengths and payload — valid or deliberately malformed.
func buildRangeVar(t testing.TB, tag msgType, start uint64, lens []uint32, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeRangeHeader(&buf, tag, start, len(lens)); err != nil {
		t.Fatal(err)
	}
	sums := make([]checksum.Sum, len(lens))
	if err := writeRangeVarMeta(&buf, sums, lens); err != nil {
		t.Fatal(err)
	}
	buf.Write(payload)
	return buf.Bytes()
}

// TestRangeDecodeRejectsMalformed is the decoder corruption matrix: every
// violated invariant — count bounds, page bounds, ordering floor, per-page
// length limits — is an ErrProtocol, and a truncated frame is an I/O error;
// none may panic or install anything.
func TestRangeDecodeRejectsMalformed(t *testing.T) {
	const numPages = 1024
	page := make([]byte, vm.PageSize)
	valid := buildRangeFull(t, 10, [][]byte{page, page, page})

	// patchCount rewrites the count field of an encoded frame in place.
	patchCount := func(frame []byte, count uint32) []byte {
		out := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(out[9:13], count)
		return out
	}

	cases := []struct {
		name     string
		frame    []byte
		floor    uint64
		wantProt bool // ErrProtocol; otherwise any non-nil error
	}{
		{"count-zero", patchCount(valid, 0), 0, true},
		{"count-one", patchCount(valid, 1), 0, true},
		{"count-over-cap", patchCount(valid, MaxRangePages+1), 0, true},
		{"count-huge", patchCount(valid, 1<<31), 0, true},
		{"out-of-page-bounds", buildRangeFull(t, numPages-1, [][]byte{page, page}), 0, true},
		{"overlaps-floor", valid, 12, true},
		{"descends-below-floor", valid, 500, true},
		{"truncated-sums", valid[:20], 0, false},
		{"truncated-payload", valid[:len(valid)-1], 0, false},
		{"z-len-zero", buildRangeVar(t, msgRangeFullZ, 0, []uint32{0, 8}, make([]byte, 8)), 0, true},
		{"z-len-full-page", buildRangeVar(t, msgRangeFullZ, 0, []uint32{vm.PageSize, 8}, nil), 0, true},
		{"delta-len-over-page", buildRangeVar(t, msgRangeDelta, 0, []uint32{vm.PageSize + 1, 8}, nil), 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(tc.frame)
			tag, err := readMsgType(r)
			if err != nil {
				t.Fatal(err)
			}
			var f rangeFrame
			err = readRangeFrame(r, tag, numPages, tc.floor, &f)
			if err == nil {
				t.Fatal("malformed frame decoded cleanly")
			}
			if tc.wantProt && !errors.Is(err, ErrProtocol) {
				t.Errorf("error = %v, want ErrProtocol", err)
			}
		})
	}

	// Control: the unpatched frame decodes, and its fields survive the trip.
	r := bytes.NewReader(valid)
	tag, _ := readMsgType(r)
	var f rangeFrame
	if err := readRangeFrame(r, tag, numPages, 10, &f); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if f.start != 10 || f.count != 3 || len(f.sums) != 3 || len(f.payload) != 3*vm.PageSize {
		t.Errorf("decoded frame = start %d count %d sums %d payload %d",
			f.start, f.count, len(f.sums), len(f.payload))
	}
}

// scriptedSourceStream builds a raw source-side byte stream: a hello with
// the given range-frame bit, one range frame, then done. Feeding it to
// MigrateDest exercises the destination's negotiation gate with no real
// source in the loop.
func scriptedSourceStream(t testing.TB, offerRanges bool, frame []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHello(&buf, hello{
		Version:     ProtocolVersion,
		VMName:      "vm0",
		PageSize:    vm.PageSize,
		PageCount:   64,
		Alg:         checksum.MD5,
		RangeFrames: offerRanges,
	}); err != nil {
		t.Fatal(err)
	}
	buf.Write(frame)
	if err := writeMsgType(&buf, msgDone); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRangeFrameNegotiationGate: a range frame from a peer that never
// completed the negotiation — it did not offer the capability, or the
// destination declined it — is a protocol violation at the derived merge
// width and at a pinned one; with the handshake complete the same bytes
// install cleanly.
func TestRangeFrameNegotiationGate(t *testing.T) {
	pages := [][]byte{make([]byte, vm.PageSize), make([]byte, vm.PageSize)}
	pages[0][7], pages[1][4095] = 0xAB, 0xCD
	frame := buildRangeFull(t, 3, pages)

	for _, workers := range []int{0, 4} {
		name := map[int]string{0: "default", 4: "pipelined"}[workers]
		t.Run(name, func(t *testing.T) {
			run := func(offer, decline bool) (*vm.VM, error) {
				dst := newVM(t, "vm0", 64, 2)
				conn := readWriter{bytes.NewReader(scriptedSourceStream(t, offer, frame)), io.Discard}
				_, err := MigrateDest(context.Background(), conn, dst, DestOptions{
					Workers:       workers,
					NoRangeFrames: decline,
				})
				return dst, err
			}
			if _, err := run(false, false); !errors.Is(err, ErrProtocol) {
				t.Errorf("unoffered range frame: err = %v, want ErrProtocol", err)
			}
			if _, err := run(true, true); !errors.Is(err, ErrProtocol) {
				t.Errorf("declined range frame: err = %v, want ErrProtocol", err)
			}
			dst, err := run(true, false)
			if err != nil {
				t.Fatalf("negotiated range frame rejected: %v", err)
			}
			got := make([]byte, vm.PageSize)
			dst.ReadPage(3, got)
			if !bytes.Equal(got, pages[0]) {
				t.Error("negotiated range frame did not install page 3")
			}
			dst.ReadPage(4, got)
			if !bytes.Equal(got, pages[1]) {
				t.Error("negotiated range frame did not install page 4")
			}
		})
	}

	// range-sum and range-delta reference checkpoint state; without a
	// checkpoint they are protocol violations even when negotiated.
	t.Run("sum-without-checkpoint", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeRangeHeader(&buf, msgRangeSum, 0, 2); err != nil {
			t.Fatal(err)
		}
		if err := writeRangeSums(&buf, make([]checksum.Sum, 2)); err != nil {
			t.Fatal(err)
		}
		dst := newVM(t, "vm0", 64, 2)
		conn := readWriter{bytes.NewReader(scriptedSourceStream(t, true, buf.Bytes())), io.Discard}
		if _, err := MigrateDest(context.Background(), conn, dst, DestOptions{}); !errors.Is(err, ErrProtocol) {
			t.Errorf("range-sum without checkpoint: err = %v, want ErrProtocol", err)
		}
	})
}

// TestRangeFrameInterop runs a recycled migration across the four
// combinations of range-frame support, mirroring the compact-announce
// interop test: coalescing is only on the wire when both ends opted in, any
// other pairing keeps the per-page v1 stream, and every combination
// migrates correctly with identical page classification.
func TestRangeFrameInterop(t *testing.T) {
	const pages = 600
	cases := []struct {
		name           string
		srcOld, dstOld bool
		wantRanges     bool
	}{
		{"both-new", false, false, true},
		{"old-source", true, false, false},
		{"old-dest", false, true, false},
		{"both-old", true, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := newVM(t, "vm0", pages, 1)
			fillGolden(src)
			store := newStore(t)
			if err := store.Save(src); err != nil {
				t.Fatal(err)
			}
			mutateGolden(src)
			dst := newVM(t, "vm0", pages, 2)
			sm, dres := migrate(t, src, dst,
				SourceOptions{Recycle: true, Compress: true, NoRangeFrames: tc.srcOld},
				DestOptions{Store: store, VerifyPayloads: true, NoRangeFrames: tc.dstOld})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if sm.PagesSum == 0 || sm.PagesFull == 0 || sm.PagesCompressed == 0 {
				t.Fatalf("scenario too narrow: %+v", sm)
			}
			if tc.wantRanges {
				if sm.RangeFrames == 0 {
					t.Error("negotiated pair emitted no range frames")
				}
			} else if sm.RangeFrames != 0 {
				t.Errorf("unnegotiated pair emitted %d range frames", sm.RangeFrames)
			}
			// Both sides count frames identically — the destination decodes
			// exactly what the source emitted.
			if dres.Metrics.RangeFrames != sm.RangeFrames {
				t.Errorf("dest decoded %d range frames, source sent %d",
					dres.Metrics.RangeFrames, sm.RangeFrames)
			}
			if dres.Metrics.PageFrames != sm.PageFrames {
				t.Errorf("dest decoded %d frames, source sent %d",
					dres.Metrics.PageFrames, sm.PageFrames)
			}
		})
	}
}

// TestRangeWireSizeHelpers cross-checks the exported range-frame size
// arithmetic against the real encoders, like TestWireSizeConstants does for
// the per-page messages.
func TestRangeWireSizeHelpers(t *testing.T) {
	page := make([]byte, vm.PageSize)
	full := buildRangeFull(t, 0, [][]byte{page, page, page})
	if len(full) != RangeFullMsgBytes(3) {
		t.Errorf("RangeFullMsgBytes(3) = %d, encoder wrote %d", RangeFullMsgBytes(3), len(full))
	}

	var buf bytes.Buffer
	if err := writeRangeHeader(&buf, msgRangeSum, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := writeRangeSums(&buf, make([]checksum.Sum, 5)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != RangeSumMsgBytes(5) {
		t.Errorf("RangeSumMsgBytes(5) = %d, encoder wrote %d", RangeSumMsgBytes(5), buf.Len())
	}

	v := buildRangeVar(t, msgRangeDelta, 0, []uint32{11, 7}, make([]byte, 18))
	if len(v) != RangeVarMsgBytes(2, 18) {
		t.Errorf("RangeVarMsgBytes(2, 18) = %d, encoder wrote %d", RangeVarMsgBytes(2, 18), len(v))
	}
}

// FuzzRangeDecode throws arbitrary bytes at the range-frame decoder under
// every range tag: it must reject or accept without panicking, and an
// accepted frame must satisfy the documented invariants.
func FuzzRangeDecode(f *testing.F) {
	page := make([]byte, vm.PageSize)
	f.Add(buildRangeFull(f, 2, [][]byte{page, page}))
	var sums bytes.Buffer
	_ = writeRangeHeader(&sums, msgRangeSum, 9, 3)
	_ = writeRangeSums(&sums, make([]checksum.Sum, 3))
	f.Add(sums.Bytes())
	f.Add(buildRangeVar(f, msgRangeFullZ, 0, []uint32{4, 4}, make([]byte, 8)))
	f.Add(buildRangeVar(f, msgRangeDelta, 0, []uint32{4, 4}, make([]byte, 8)))
	f.Add([]byte{byte(msgRangeFull)})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const numPages = 64
		for _, tag := range []msgType{msgRangeSum, msgRangeFull, msgRangeFullZ, msgRangeDelta} {
			var fr rangeFrame
			if err := readRangeFrame(bytes.NewReader(raw), tag, numPages, 1, &fr); err != nil {
				continue
			}
			if fr.count < minRangePages || fr.count > MaxRangePages {
				t.Errorf("accepted count %d", fr.count)
			}
			if fr.start < 1 || fr.start+uint64(fr.count) > numPages {
				t.Errorf("accepted run [%d,+%d) outside floor/bounds", fr.start, fr.count)
			}
			if len(fr.sums) != fr.count {
				t.Errorf("decoded %d sums for count %d", len(fr.sums), fr.count)
			}
		}
	})
}

// FuzzRangeMergeStream drives the whole destination engine with a mutated
// range-negotiated stream: must terminate with success or error, never
// panic — the range-frame sibling of FuzzMergeStream.
func FuzzRangeMergeStream(f *testing.F) {
	page := make([]byte, vm.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	f.Add(scriptedSourceStream(f, true, buildRangeFull(f, 0, [][]byte{page, page})))
	var sums bytes.Buffer
	_ = writeRangeHeader(&sums, msgRangeSum, 0, 2)
	_ = writeRangeSums(&sums, []checksum.Sum{checksum.MD5.Page(page), checksum.MD5.Page(page)})
	f.Add(scriptedSourceStream(f, true, sums.Bytes()))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dst, err := vm.New(vm.Config{Name: "vm0", MemBytes: 64 * vm.PageSize, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = MigrateDest(context.Background(), readWriter{bytes.NewReader(raw), io.Discard}, dst, DestOptions{VerifyPayloads: true})
	})
}
