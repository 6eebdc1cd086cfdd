package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// Page compression, the orthogonal optimization of Svärd et al. (paper
// reference [24]) that §5 notes "can be combined with VeCycle": full pages
// that must cross the wire are deflated first. Checksum-only pages gain
// nothing (they are already 25 bytes), so compression only touches
// msgPageFull traffic — and incompressible pages (random data, encrypted
// memory) fall back to the raw encoding when deflate fails to shrink them.

// The entropy gate: deflate at BestSpeed still costs ~25 µs per 4 KiB page
// even when the data is incompressible and the output is thrown away in
// favour of the raw encoding. Before deflating, the encoder samples the
// page's byte histogram on a stride and estimates its Shannon entropy in
// integer fixed point; pages sampling close to 8 bits/byte (random data,
// encrypted or already-compressed memory) skip the flate pass entirely and
// go out as raw/full frames via the existing fallback encoding — no new
// wire tags. The decision is a pure function of the page bytes, so the wire
// stream stays byte-identical at every pipeline width. Misclassification is
// a pure performance trade: a skipped-but-compressible page ships raw
// (bigger, still correct), a passed-but-incompressible page wastes one
// deflate and falls back raw exactly as before.

// gateSamples is the number of bytes the entropy probe reads, spread across
// the page on a fixed stride (512 B sampled of a 4 KiB page).
const gateSamples = 512

// gateEntropyQ8 is the skip threshold in Q8 fixed-point bits per sampled
// byte. 512 uniform-random samples over 256 symbols measure ~7.2 empirical
// bits/byte (the sample-size bias keeps them below 8.0); structured or
// repetitive data measures well under 6. Pages above the threshold skip
// deflate.
const gateEntropyQ8 = 7 * 256 // 7.0 bits/byte

// log2Q8 holds round(log2(c) * 256) for c in [0, gateSamples]; index 0 is
// unused (empty histogram bins contribute nothing).
var log2Q8 [gateSamples + 1]uint32

func init() {
	for c := 2; c <= gateSamples; c++ {
		// Integer log2 in Q8 without floats: 256*floor(log2) plus a linear
		// interpolation of the fraction from the 8 bits below the top bit.
		// Max error vs the true log2 is ~0.086 bit — far inside the gate's
		// decision margin — and the table is bit-identical on every platform.
		msb := uint32(bits.Len32(uint32(c)) - 1)
		frac := (uint32(c)<<8)>>msb - 256 // (c / 2^msb - 1) in Q8
		log2Q8[c] = msb<<8 + frac
	}
}

// compressible estimates whether deflate is worth attempting on page. Pure
// function of the page bytes (content-pure): the golden-stream invariant
// across pipeline widths depends on that.
func compressible(page []byte) bool {
	stride := len(page) / gateSamples
	if stride < 1 {
		// Sub-sample-sized inputs: too small to estimate, just try deflate.
		return true
	}
	var hist [256]uint16
	for i := 0; i < gateSamples; i++ {
		hist[page[i*stride]]++
	}
	// Empirical entropy over the N samples, scaled by N and in Q8:
	//   H*N = N*log2(N) - sum_c count(c)*log2(count(c))
	const nLog2nQ8 = gateSamples * 9 << 8 // N * log2(512) in Q8
	var sum uint32
	for _, c := range hist {
		sum += uint32(c) * log2Q8[c]
	}
	return nLog2nQ8-sum <= gateEntropyQ8*gateSamples
}

// pageCompressor deflates page payloads, reusing one encoder.
type pageCompressor struct {
	buf bytes.Buffer
	fw  *flate.Writer
}

func newPageCompressor() (*pageCompressor, error) {
	c := &pageCompressor{}
	fw, err := flate.NewWriter(&c.buf, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("core: init compressor: %w", err)
	}
	c.fw = fw
	return c, nil
}

// compressorPool recycles pageCompressors across migrations and workers.
// Each one owns a flate.Writer holding several hundred KiB of window and
// hash-chain state — far too expensive to rebuild per round.
var compressorPool sync.Pool

func getPageCompressor() (*pageCompressor, error) {
	if c, ok := compressorPool.Get().(*pageCompressor); ok {
		return c, nil
	}
	return newPageCompressor()
}

func putPageCompressor(c *pageCompressor) {
	if c == nil {
		return
	}
	c.buf.Reset()
	compressorPool.Put(c)
}

// compress deflates page. ok=false means the page did not shrink and the
// caller should send it raw.
func (c *pageCompressor) compress(page []byte) (data []byte, ok bool, err error) {
	c.buf.Reset()
	c.fw.Reset(&c.buf)
	if _, err := c.fw.Write(page); err != nil {
		return nil, false, fmt.Errorf("core: compress page: %w", err)
	}
	if err := c.fw.Close(); err != nil {
		return nil, false, fmt.Errorf("core: compress page: %w", err)
	}
	if c.buf.Len() >= len(page) {
		return nil, false, nil
	}
	return c.buf.Bytes(), true, nil
}

// writePageFullZ emits a compressed full-page message: the standard page
// header followed by a u32 length and the deflate stream.
func writePageFullZ(w io.Writer, page uint64, sum checksum.Sum, compressed []byte) error {
	if err := writePageHeader(w, msgPageFullZ, page, sum); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(compressed)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("core: write compressed length: %w", err)
	}
	if _, err := w.Write(compressed); err != nil {
		return fmt.Errorf("core: write compressed payload: %w", err)
	}
	return nil
}

// pageDecompressor inflates page payloads, reusing one decoder.
type pageDecompressor struct {
	fr io.ReadCloser
}

func newPageDecompressor() *pageDecompressor {
	return &pageDecompressor{fr: flate.NewReader(bytes.NewReader(nil))}
}

// inflate decompresses one already-read deflate payload into dst, which
// must hold exactly PageSize bytes: the decoder stage reads the payload off
// the wire (readPayloadLen bounds its length) and a merge worker inflates
// it off-thread.
func (d *pageDecompressor) inflate(comp, dst []byte) error {
	if err := d.fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return fmt.Errorf("core: reset inflater: %w", err)
	}
	if _, err := io.ReadFull(d.fr, dst[:vm.PageSize]); err != nil {
		return fmt.Errorf("%w: inflate page: %v", ErrProtocol, err)
	}
	// The stream must end exactly at a page boundary.
	var extra [1]byte
	if n, _ := d.fr.Read(extra[:]); n != 0 {
		return fmt.Errorf("%w: compressed page inflates beyond %d bytes", ErrProtocol, vm.PageSize)
	}
	return nil
}
