package core

import (
	"fmt"
	"io"
	"time"
)

// Metrics records what a migration cost. The paper reports migration time
// and source send traffic (Figures 6 and 7); the remaining counters break
// the traffic down by protocol element for the ablation benches.
type Metrics struct {
	// BytesSent is the total number of bytes written to the transport by
	// this side — the "source send traffic" of Figure 6 when read on the
	// source.
	BytesSent int64
	// BytesReceived is the total read from the transport.
	BytesReceived int64
	// PagesFull counts pages transferred with payload.
	PagesFull int
	// PagesSum counts pages replaced by a bare checksum.
	PagesSum int
	// PagesReusedInPlace counts destination frames whose resident content
	// already matched the received checksum (no disk read needed).
	PagesReusedInPlace int
	// PagesReusedFromDisk counts frames repaired from the checkpoint file
	// via the checksum index (the lseek+read path of Listing 1).
	PagesReusedFromDisk int
	// PagesCompressed counts full pages that crossed the wire deflated
	// (only with SourceOptions.Compress); incompressible pages fall back
	// to the raw encoding and count under PagesFull alone.
	PagesCompressed int
	// CompressionSavedBytes is the payload volume compression avoided.
	CompressionSavedBytes int64
	// CompressAttempted counts full pages the entropy gate admitted to the
	// deflate pass (source side, only with SourceOptions.Compress). A page
	// that deflated but did not shrink still counts here.
	CompressAttempted int
	// CompressSkipped counts full pages the entropy gate judged
	// incompressible and sent raw without running deflate at all.
	// CompressAttempted+CompressSkipped is the number of gate decisions.
	CompressSkipped int
	// PagesDelta counts changed pages sent as XBZRLE deltas against the
	// checkpoint frame (only with SourceOptions.DeltaBase).
	PagesDelta int
	// PageFrames counts page-carrying wire frames in either encoding: one
	// per page under the v1 per-page protocol, one per coalesced run when
	// page-range frames were negotiated. Pages/PageFrames is the realized
	// coalescing factor.
	PageFrames int
	// RangeFrames counts the subset of PageFrames that crossed the wire as
	// coalesced page-range frames (tags 12-15). Zero for unnegotiated
	// peers.
	RangeFrames int
	// DeltaSavedBytes is the payload volume delta encoding avoided.
	DeltaSavedBytes int64
	// AnnounceBytes is the size of the bulk hash announcement (§3.2's
	// "additional traffic", 16 MiB for a 4 GiB guest with MD5) as it
	// crossed the wire — compacted when the v2 encoding was negotiated.
	AnnounceBytes int64
	// AnnounceRawBytes is what the same announcement would have cost in the
	// v1 encoding (count + raw sums). AnnounceRawBytes - AnnounceBytes is
	// the volume the compact encoding saved; equal (modulo framing) when v1
	// was used.
	AnnounceRawBytes int64
	// Rounds is the number of pre-copy rounds, including the final
	// stop-and-copy round.
	Rounds int
	// HashBytes counts payload bytes the destination's round-end
	// TrackIncoming pass had to digest itself — pages no install-time sum
	// covered. Zero on the source, for untracked destinations, and on the
	// normal tracked path (round one walks every page, so every digest
	// arrives on some frame).
	HashBytes int64
	// HashAvoidedBytes counts payload bytes whose digest was recycled from
	// a sum the engine already knew instead of being recomputed: on the
	// destination, in-place checks answered by the merge's sum table
	// (bootstrap sums, frame headers, verified installs) and the round-end
	// TrackIncoming pass; on the source, round-one pages whose arrival-time
	// digest still held (SourceOptions.Arrival).
	HashAvoidedBytes int64
	// EncodeHashBytes counts payload bytes the source digested while
	// encoding pages (the "encode" hash stage). Zero on the destination.
	EncodeHashBytes int64
	// ProbeHashBytes counts resident payload bytes the destination digested
	// to check page-sum and range-sum frames in place, for frames its sum
	// table had no entry for (the "probe" hash stage). Zero on the source.
	ProbeHashBytes int64
	// Stages breaks the pipelined engine down by stage, so a throughput
	// regression can be attributed (reader-bound, worker-bound, or
	// wire-bound) instead of guessed.
	Stages StageMetrics
	// Duration is the wall-clock migration time: from initiating the
	// migration until the destination acknowledged the final merge. As in
	// the paper, destination setup (checkpoint load) and source checkpoint
	// writing are excluded.
	Duration time.Duration
}

// StageMetrics records per-stage busy and stall time of a pipelined
// transfer. On the source, ingest is the page reader, workers hash +
// compress + delta-encode, and emit is the in-order frame writer; on the
// destination, ingest is the frame decoder and workers
// decompress/verify/install (there is no emit stage). A stage's stall time
// is how long it spent blocked on its neighbours' bounded queues: a large
// EmitStall means the workers are the bottleneck, a large IngestStall on
// the destination means the workers cannot keep up with the wire.
type StageMetrics struct {
	// Batches counts work units through the pipeline: page batches on the
	// source, page messages on the destination.
	Batches int64
	// IngestBusy/IngestStall: the reader (source) or decoder (dest) stage.
	// On the source, IngestStall is time the sequencer spent blocked on the
	// in-order emit queue (emitter backpressure); on the destination, time
	// the decoder spent blocked handing jobs to the install pool.
	IngestBusy  time.Duration
	IngestStall time.Duration
	// DispatchStall is time the source's sequencer spent blocked handing
	// batches to the encode workers (worker backpressure). Separate from
	// IngestStall so reader-bound, emitter-bound, and worker-bound rounds
	// are distinguishable; zero on the destination.
	DispatchStall time.Duration
	// WorkerBusy is the summed busy time across the worker pool.
	WorkerBusy time.Duration
	// EmitBusy/EmitStall: the source's in-order emitter. Zero on the
	// destination, where installs are unordered and happen in the workers.
	EmitBusy  time.Duration
	EmitStall time.Duration
}

// add accumulates another round's (or side's) stage counters.
func (s *StageMetrics) add(o StageMetrics) {
	s.Batches += o.Batches
	s.IngestBusy += o.IngestBusy
	s.IngestStall += o.IngestStall
	s.DispatchStall += o.DispatchStall
	s.WorkerBusy += o.WorkerBusy
	s.EmitBusy += o.EmitBusy
	s.EmitStall += o.EmitStall
}

// addPageCounters merges the per-page counters a pipeline batch collected
// into the migration-wide metrics. Transport-level fields (BytesSent,
// Duration, Rounds, ...) are owned by the protocol driver and not touched.
func (m *Metrics) addPageCounters(d Metrics) {
	m.PagesFull += d.PagesFull
	m.PagesSum += d.PagesSum
	m.PagesDelta += d.PagesDelta
	m.PageFrames += d.PageFrames
	m.RangeFrames += d.RangeFrames
	m.PagesCompressed += d.PagesCompressed
	m.CompressionSavedBytes += d.CompressionSavedBytes
	m.CompressAttempted += d.CompressAttempted
	m.CompressSkipped += d.CompressSkipped
	m.DeltaSavedBytes += d.DeltaSavedBytes
	m.PagesReusedInPlace += d.PagesReusedInPlace
	m.PagesReusedFromDisk += d.PagesReusedFromDisk
	m.HashAvoidedBytes += d.HashAvoidedBytes
	m.EncodeHashBytes += d.EncodeHashBytes
	m.ProbeHashBytes += d.ProbeHashBytes
}

// String summarizes the metrics in one line. Both byte directions render
// through FormatBytes and the field order is fixed, so source- and
// destination-side summaries line up column-for-column in logs (the
// destination's recv mirrors the source's sent). PostCopyMetrics.String
// extends this prefix with the post-copy fields.
func (m Metrics) String() string {
	return fmt.Sprintf("sent=%s recv=%s full=%d sum=%d rounds=%d time=%v",
		FormatBytes(m.BytesSent), FormatBytes(m.BytesReceived),
		m.PagesFull, m.PagesSum, m.Rounds, m.Duration)
}

// FormatBytes renders a byte count in binary units.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// countingWriter wraps a writer, accumulating the bytes written.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader wraps a reader, accumulating the bytes read.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
