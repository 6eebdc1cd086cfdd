package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/delta"
	"vecycle/internal/vm"
)

// Coalesced page-range frames (tags 12-15). The per-page protocol spends a
// tag + page number + checksum on every 4 KiB page, and — worse for the
// pipelined engines — one decode/dispatch cycle per page at the
// destination. A range frame carries a contiguous run of pages that all
// received the same treatment in one frame:
//
//	tag · start u64 · count u32 · per-page metadata · concatenated payloads
//
// where the metadata is one checksum per page (range-sum, range-full) or
// one (checksum, payload-length) pair per page (range-full-z, range-delta).
// Runs never exceed MaxRangePages and never span a pipeline batch, so the
// frame layout is a pure function of page content and batch boundaries —
// which keeps the stream byte-identical across pipeline widths, exactly
// like the per-page encoding. The capability is negotiated in the hello
// exchange (hello bit 4 offered by the source, hello-ack bit 4 accepted by
// the destination); unnegotiated peers keep the byte-exact v1 stream.

// MaxRangePages caps the pages one range frame may carry. It equals the
// pipeline's batch size: runs cannot span batches, so a larger cap would
// never be used, and the bound keeps a decoder's per-frame buffering at
// MaxRangePages*vm.PageSize bytes no matter what a hostile peer sends.
const MaxRangePages = batchPages

// minRangePages is the smallest run worth coalescing: a single page is
// cheaper in its per-page v1 frame (no count field), so the encoder only
// emits ranges for runs of at least two and the decoder rejects smaller
// counts as malformed.
const minRangePages = 2

// pageTreatment classifies how one page crosses the wire; a range frame
// coalesces a run of pages sharing one treatment.
type pageTreatment uint8

const (
	treatNone  pageTreatment = iota
	treatSum                 // destination already holds the content
	treatFull                // raw page payload
	treatFullZ               // deflate-compressed payload
	treatDelta               // XBZRLE delta against the checkpoint frame
)

// rangeTag maps a treatment to its range-frame message type.
func (t pageTreatment) rangeTag() msgType {
	switch t {
	case treatSum:
		return msgRangeSum
	case treatFull:
		return msgRangeFull
	case treatFullZ:
		return msgRangeFullZ
	default:
		return msgRangeDelta
	}
}

// rangeRun accumulates the current candidate run inside a sourceEncoder:
// page checksums, per-page payload lengths (variable-size treatments), and
// the concatenated payload bytes for the compressed/delta treatments. Raw
// full payloads are not copied here — they are a contiguous span of the
// batch's data buffer and are written straight from it.
type rangeRun struct {
	treat    pageTreatment
	start    uint64 // first page number of the run
	startIdx int    // index of the first run page within the batch
	sums     []checksum.Sum
	lens     []uint32
	payload  bytes.Buffer
}

// reset clears the run for reuse, keeping the scratch capacity.
func (r *rangeRun) reset() {
	r.treat = treatNone
	r.sums = r.sums[:0]
	r.lens = r.lens[:0]
	r.payload.Reset()
}

// len reports the pages accumulated so far.
func (r *rangeRun) len() int { return len(r.sums) }

// writeRangeHeader emits the tag, start page, and page count of a range
// frame.
func writeRangeHeader(w io.Writer, t msgType, start uint64, count int) error {
	var buf [1 + 8 + 4]byte
	buf[0] = byte(t)
	binary.LittleEndian.PutUint64(buf[1:9], start)
	binary.LittleEndian.PutUint32(buf[9:13], uint32(count))
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("core: write %v header: %w", t, err)
	}
	return nil
}

// writeRangeSums emits the per-page checksum block of a range frame.
func writeRangeSums(w io.Writer, sums []checksum.Sum) error {
	for i := range sums {
		if _, err := w.Write(sums[i][:]); err != nil {
			return fmt.Errorf("core: write range sums: %w", err)
		}
	}
	return nil
}

// writeRangeVarMeta emits the (checksum, length) metadata block of a
// variable-payload range frame (range-full-z, range-delta).
func writeRangeVarMeta(w io.Writer, sums []checksum.Sum, lens []uint32) error {
	var lenBuf [4]byte
	for i := range sums {
		if _, err := w.Write(sums[i][:]); err != nil {
			return fmt.Errorf("core: write range meta: %w", err)
		}
		binary.LittleEndian.PutUint32(lenBuf[:], lens[i])
		if _, err := w.Write(lenBuf[:]); err != nil {
			return fmt.Errorf("core: write range meta: %w", err)
		}
	}
	return nil
}

// writePageDelta emits a single-page delta frame: the standard page header
// followed by a u32 length and the XBZRLE encoding.
func writePageDelta(w io.Writer, page uint64, sum checksum.Sum, enc []byte) error {
	if err := writePageHeader(w, msgPageDelta, page, sum); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(enc)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("core: write delta length: %w", err)
	}
	if _, err := w.Write(enc); err != nil {
		return fmt.Errorf("core: write delta payload: %w", err)
	}
	return nil
}

// encodeBatchRanges is the range-mode batch encoder: it classifies every
// page exactly as encodePage would (checksum-set lookup, delta attempt,
// deflate fallback — identical per-page decisions and metrics), but
// coalesces contiguous same-treatment pages into range frames. Runs of one
// page fall back to their per-page v1 frame, so a range frame on the wire
// always carries at least minRangePages pages.
func encodeBatchRanges(e *sourceEncoder, base PageProvider, b *pageBatch) error {
	r := &e.run
	r.reset()
	for i, p := range b.pages {
		data := b.data[i*vm.PageSize : (i+1)*vm.PageSize]
		sum := b.pageSum(e.alg, i, data)
		e.sent.record(p, sum)
		treat := treatFull
		var payload []byte
		switch {
		case e.destSums != nil && e.destSums.Contains(sum):
			treat = treatSum
		default:
			if base != nil {
				enc, err := e.deltaPayload(base, p, data)
				if err != nil {
					return err
				}
				if enc != nil {
					treat, payload = treatDelta, enc
				}
			}
			if treat == treatFull && e.comp != nil {
				if !compressible(data) {
					b.m.CompressSkipped++
				} else {
					b.m.CompressAttempted++
					z, ok, err := e.comp.compress(data)
					if err != nil {
						return err
					}
					if ok {
						treat, payload = treatFullZ, z
					}
				}
			}
		}

		// A run extends while the treatment matches, the page numbers stay
		// contiguous, and the cap is not hit; anything else flushes.
		if r.treat != treat || r.len() >= MaxRangePages ||
			(r.len() > 0 && r.start+uint64(r.len()) != uint64(p)) {
			if err := e.flushRun(b); err != nil {
				return err
			}
			r.treat = treat
			r.start = uint64(p)
			r.startIdx = i
		}
		r.sums = append(r.sums, sum)
		switch treat {
		case treatSum:
			b.m.PagesSum++
		case treatFull:
			b.m.PagesFull++
		case treatFullZ:
			r.lens = append(r.lens, uint32(len(payload)))
			r.payload.Write(payload)
			b.m.PagesFull++
			b.m.PagesCompressed++
			b.m.CompressionSavedBytes += int64(vm.PageSize - len(payload) - 4)
		case treatDelta:
			r.lens = append(r.lens, uint32(len(payload)))
			r.payload.Write(payload)
			b.m.PagesDelta++
			b.m.DeltaSavedBytes += int64(vm.PageSize - len(payload) - 4)
		}
	}
	return e.flushRun(b)
}

// deltaPayload attempts an XBZRLE delta of data against the provider's
// content for page p. nil means no delta applies (frame uncovered or the
// encoding too large); the returned slice is the encoder's scratch, valid
// until the next call.
func (e *sourceEncoder) deltaPayload(base PageProvider, p int, data []byte) ([]byte, error) {
	old, ok, err := base.PageAt(p)
	if err != nil {
		return nil, deltaBaseErr(err)
	}
	if !ok {
		return nil, nil
	}
	enc, err := delta.Encode(e.deltaBuf[:0], old, data, deltaLimit)
	if errors.Is(err, delta.ErrTooLarge) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	e.deltaBuf = enc[:0] // keep the (possibly grown) scratch for reuse
	return enc, nil
}

// flushRun writes the accumulated run into the batch buffer — as the
// per-page v1 frame when the run holds a single page, as one range frame
// otherwise — and resets the run.
func (e *sourceEncoder) flushRun(b *pageBatch) error {
	r := &e.run
	n := r.len()
	if n == 0 {
		return nil
	}
	defer r.reset()
	w := &b.buf
	b.m.PageFrames++
	if n == 1 {
		data := b.data[r.startIdx*vm.PageSize : (r.startIdx+1)*vm.PageSize]
		switch r.treat {
		case treatSum:
			return writePageSum(w, r.start, r.sums[0])
		case treatFull:
			return writePageFull(w, r.start, r.sums[0], data)
		case treatFullZ:
			return writePageFullZ(w, r.start, r.sums[0], r.payload.Bytes())
		default:
			return writePageDelta(w, r.start, r.sums[0], r.payload.Bytes())
		}
	}
	b.m.RangeFrames++
	t := r.treat.rangeTag()
	if err := writeRangeHeader(w, t, r.start, n); err != nil {
		return err
	}
	switch r.treat {
	case treatSum:
		return writeRangeSums(w, r.sums)
	case treatFull:
		if err := writeRangeSums(w, r.sums); err != nil {
			return err
		}
		payload := b.data[r.startIdx*vm.PageSize : (r.startIdx+n)*vm.PageSize]
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("core: write range payload: %w", err)
		}
		return nil
	default: // treatFullZ, treatDelta
		if err := writeRangeVarMeta(w, r.sums, r.lens); err != nil {
			return err
		}
		if _, err := w.Write(r.payload.Bytes()); err != nil {
			return fmt.Errorf("core: write range payload: %w", err)
		}
		return nil
	}
}

// rangeFrame is one decoded page-range frame: the destination's carrier
// between the decode stage and the install worker.
type rangeFrame struct {
	t       msgType
	start   uint64
	count   int
	sums    []checksum.Sum
	lens    []uint32 // per-page payload lengths (range-full-z, range-delta)
	payload []byte   // concatenated payloads; empty for range-sum
}

// reset clears the frame for reuse, keeping scratch capacity.
func (f *rangeFrame) reset() {
	f.count = 0
	f.sums = f.sums[:0]
	f.lens = f.lens[:0]
	f.payload = f.payload[:0]
}

// readRangeFrame parses one range frame after its tag byte into f, reusing
// f's scratch. numPages bounds the addressable page space; floor is the
// first page number this frame may cover — the end of the previous range
// frame of the round — so overlapping or descending runs are rejected (the
// source emits each round's pages in strictly ascending order).
func readRangeFrame(r io.Reader, t msgType, numPages int, floor uint64, f *rangeFrame) error {
	f.reset()
	f.t = t
	var hdr [8 + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("core: read %v header: %w", t, err)
	}
	f.start = binary.LittleEndian.Uint64(hdr[:8])
	count := binary.LittleEndian.Uint32(hdr[8:12])
	if count < minRangePages || count > MaxRangePages {
		return fmt.Errorf("%w: %v count %d out of [%d,%d]", ErrProtocol, t, count, minRangePages, MaxRangePages)
	}
	f.count = int(count)
	if f.start+uint64(f.count) > uint64(numPages) {
		return fmt.Errorf("%w: %v [%d,+%d) out of range (%d pages)", ErrProtocol, t, f.start, f.count, numPages)
	}
	if f.start < floor {
		return fmt.Errorf("%w: %v starting at %d overlaps or precedes an earlier run ending at %d", ErrProtocol, t, f.start, floor)
	}

	total := 0
	switch t {
	case msgRangeSum, msgRangeFull:
		var sum checksum.Sum
		for i := 0; i < f.count; i++ {
			if _, err := io.ReadFull(r, sum[:]); err != nil {
				return fmt.Errorf("core: read %v sums: %w", t, err)
			}
			f.sums = append(f.sums, sum)
		}
		if t == msgRangeFull {
			total = f.count * vm.PageSize
		}
	case msgRangeFullZ, msgRangeDelta:
		perPage := msgPageFullZ
		if t == msgRangeDelta {
			perPage = msgPageDelta
		}
		var meta [checksum.Size + 4]byte
		for i := 0; i < f.count; i++ {
			if _, err := io.ReadFull(r, meta[:]); err != nil {
				return fmt.Errorf("core: read %v meta: %w", t, err)
			}
			var sum checksum.Sum
			copy(sum[:], meta[:checksum.Size])
			n := binary.LittleEndian.Uint32(meta[checksum.Size:])
			// Per-page limits match the per-page frames' (a compressed page
			// must shrink, a delta may at most reach a full page).
			limit := vm.PageSize
			if perPage == msgPageFullZ {
				limit = vm.PageSize - 1
			}
			if n == 0 || int(n) > limit {
				return fmt.Errorf("%w: %v payload length %d out of range", ErrProtocol, t, n)
			}
			f.sums = append(f.sums, sum)
			f.lens = append(f.lens, n)
			total += int(n)
		}
	}
	if total > 0 {
		if cap(f.payload) < total {
			f.payload = make([]byte, total)
		}
		f.payload = f.payload[:total]
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return fmt.Errorf("core: read %v payload: %w", t, err)
		}
	}
	return nil
}

// destScratch is the per-goroutine install state of each merge worker: a
// span buffer that grows to one full range, a checksum scratch for
// range-sum probes, and a lazily created inflater.
type destScratch struct {
	buf    []byte
	sums   []checksum.Sum
	decomp *pageDecompressor
}

// span returns the scratch buffer grown to n pages.
func (st *destScratch) span(n int) []byte {
	if cap(st.buf) < n*vm.PageSize {
		st.buf = make([]byte, n*vm.PageSize)
	}
	return st.buf[:n*vm.PageSize]
}

// destScratchPool recycles install scratch across migrations and workers.
// A scratch grows to one full range span (MaxRangePages*vm.PageSize = 1 MiB)
// plus an inflater; allocating that per worker per migration is what made
// B/op scale linearly with pipeline width before pooling.
var destScratchPool = sync.Pool{New: func() interface{} {
	return new(destScratch)
}}

func getDestScratch() *destScratch {
	return destScratchPool.Get().(*destScratch)
}

func putDestScratch(st *destScratch) {
	destScratchPool.Put(st)
}

// applyRange installs one decoded range frame into v: per-page verification
// and payload decoding happen into a span buffer, then the whole run lands
// with a single vectorized install (vm.InstallRange) and the metrics update
// once per range. The caller has already validated the frame bounds and the
// checkpoint requirement. On success the frame's per-page sums — which
// describe the installed content in every treatment — are recorded into tbl
// (nil on a cold untracked merge, where no range-sum frame can arrive).
func applyRange(v *vm.VM, cp *checkpoint.Checkpoint, alg checksum.Algorithm, verify bool, f *rangeFrame, st *destScratch, tbl *SumTable, m *Metrics) error {
	start := int(f.start)
	switch f.t {
	case msgRangeSum:
		m.PagesSum += f.count
		// Fast path: compare against the sum table's record of each frame,
		// digesting only frames it has no entry for; only mismatches fall
		// back to the checkpoint index (lseek+read of Listing 1), installed
		// individually — they are the exception.
		st.sums = tbl.residentSums(v, start, f.count, alg, st.sums, m)
		inPlace := 0
		for i := 0; i < f.count; i++ {
			if st.sums[i] == f.sums[i] {
				inPlace++
				continue
			}
			data, ok, err := cp.ReadBlock(f.sums[i])
			if err != nil {
				return recycleReadErr(err)
			}
			if !ok {
				return fmt.Errorf("%w: source referenced checksum %v absent from checkpoint", ErrProtocol, f.sums[i])
			}
			v.InstallPage(start+i, data)
			cp.Release(data)
			m.PagesReusedFromDisk++
		}
		m.PagesReusedInPlace += inPlace

	case msgRangeFull:
		if verify {
			for i := 0; i < f.count; i++ {
				if got := alg.Page(f.payload[i*vm.PageSize : (i+1)*vm.PageSize]); got != f.sums[i] {
					return fmt.Errorf("%w: page %d payload checksum mismatch", ErrProtocol, start+i)
				}
			}
		}
		v.InstallRange(start, f.payload)
		m.PagesFull += f.count

	case msgRangeFullZ:
		if st.decomp == nil {
			st.decomp = newPageDecompressor()
		}
		buf := st.span(f.count)
		off := 0
		for i := 0; i < f.count; i++ {
			n := int(f.lens[i])
			dst := buf[i*vm.PageSize : (i+1)*vm.PageSize]
			if err := st.decomp.inflate(f.payload[off:off+n], dst); err != nil {
				return err
			}
			off += n
			if verify {
				if got := alg.Page(dst); got != f.sums[i] {
					return fmt.Errorf("%w: page %d payload checksum mismatch", ErrProtocol, start+i)
				}
			}
		}
		v.InstallRange(start, buf)
		m.PagesFull += f.count
		m.PagesCompressed += f.count

	case msgRangeDelta:
		// The frames still hold bootstrap (checkpoint) content: deltas are
		// first-round only and each round-one frame appears exactly once,
		// so the whole base span can be read at once and patched in place.
		buf := st.span(f.count)
		v.ReadRange(start, f.count, buf)
		off := 0
		for i := 0; i < f.count; i++ {
			n := int(f.lens[i])
			dst := buf[i*vm.PageSize : (i+1)*vm.PageSize]
			if err := delta.Decode(dst, f.payload[off:off+n], dst); err != nil {
				return fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			off += n
			// Deltas are always verified: a base mismatch (stale mirror at
			// the source) silently corrupts otherwise.
			if got := alg.Page(dst); got != f.sums[i] {
				return fmt.Errorf("%w: page %d delta produced checksum mismatch (stale delta base?)", ErrProtocol, start+i)
			}
		}
		v.InstallRange(start, buf)
		m.PagesDelta += f.count
	}
	tbl.recordRange(start, f.sums[:f.count])
	return nil
}
