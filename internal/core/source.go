package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/dirtytrack"
	"vecycle/internal/vm"
)

// Common protocol errors.
var (
	// ErrRejected is returned when the destination refuses the migration.
	ErrRejected = errors.New("core: destination rejected migration")
	// ErrProtocol is returned on unexpected messages or malformed frames.
	ErrProtocol = errors.New("core: protocol violation")
)

// SourceOptions configures an outgoing migration.
type SourceOptions struct {
	// Alg is the page-checksum algorithm. Recycled migrations must use a
	// strong one (MD5, SHA-256) because matches are declared across hosts
	// without byte comparison (§3.4); baseline migrations may select the
	// fast non-cryptographic hashes (fnv, fast64), whose sums serve only as
	// payload integrity tags. Defaults to MD5.
	Alg checksum.Algorithm
	// Recycle enables checkpoint-assisted mode. When false the engine
	// behaves like stock QEMU pre-copy: every first-round page is sent in
	// full.
	Recycle bool
	// KnownDestSums carries the checksum set this host observed while it
	// was the *destination* of a previous migration of this VM from the
	// current peer — the ping-pong optimization of §3.2. When set, the
	// destination's bulk announcement is skipped.
	KnownDestSums *checksum.Set
	// MaxRounds bounds the number of pre-copy rounds, including the final
	// stop-and-copy round. Defaults to 4.
	MaxRounds int
	// StopThreshold is the dirty-page count at which the engine proceeds to
	// the final round. Defaults to 64.
	StopThreshold int
	// Compress deflates full-page payloads (Svärd et al.'s orthogonal
	// optimization, combinable with checkpoint recycling). Pages that do
	// not shrink are sent raw.
	Compress bool
	// NoCompactAnnounce withholds the compact-announce capability from the
	// hello, forcing the destination to use the v1 announcement encoding.
	// For interop testing and as an escape hatch.
	NoCompactAnnounce bool
	// NoRangeFrames withholds the page-range-frame capability from the
	// hello, keeping the per-page v1 page encoding even against a
	// range-capable destination. For interop testing and as an escape
	// hatch.
	NoRangeFrames bool
	// Workers pins the source pipeline width: page reads, per-page encoding
	// (checksum + compression + delta), and wire emission run as concurrent
	// stages, with Workers goroutines in the encode stage — §3.4's remedy
	// when the checksum rate, not the network, bounds the migration
	// (10/40 GbE). The wire stream is byte-for-byte identical for any
	// width. Values below 1 derive the width: GOMAXPROCS, capped at 8.
	Workers int
	// DeltaBase supplies the content the destination's RAM will hold after
	// its checkpoint bootstrap, per frame — typically this host's own
	// mirror of the peer's checkpoint (checkpoint.Checkpoint satisfies the
	// interface). When set, a changed page whose frame diverged only
	// partially is sent as an XBZRLE delta (Svärd et al.). Deltas are used
	// in the first round only: later rounds cannot assume the destination
	// frame still holds checkpoint content.
	DeltaBase PageProvider
	// Pause, when non-nil, is invoked before the final round so the caller
	// can stop the guest workload (the stop-and-copy pause). Resume, when
	// non-nil, is invoked after the destination acknowledges.
	Pause  func()
	Resume func()
	// OnEvent, when non-nil, observes each protocol turn (hello, rounds,
	// pause, done) for tracing. Emission never alters the wire stream.
	OnEvent EventFunc
	// SentSums, when non-nil, is reset by the migration and filled with the
	// digest of each page's most recently sent content, recorded as a
	// byproduct of encoding. Round one walks every page and later rounds
	// overwrite re-sent ones, so after a successful migration the table
	// holds the digest of every page of the paused final state — exactly
	// what the post-migration checkpoint will contain, so
	// checkpoint.Store.SaveWithSums can ingest it without a sidecar rehash.
	// Recording never alters the wire stream.
	SentSums *SumTable
	// Arrival, when set, hands round one the digests this host already
	// holds for v: the page-sum table recorded when v arrived here, with
	// v's generation snapshot taken as it registered. Round one then
	// digests only pages whose generation moved since — the paper's
	// Figure 5 "dirty tracking + hashes" combination. The table is used
	// only when it is complete, under Alg, covering every page of v, and
	// not the SentSums table itself (which the migration resets). Reuse
	// never alters the wire stream: the sums are the ones hashing would
	// produce.
	Arrival ArrivalSums
}

// ArrivalSums binds a VM's complete page-sum table to the generation
// snapshot at which it described the VM's memory: DestResult.PageSums of
// the migration that brought the VM in, and vm.GenSnapshot taken before
// anything could write to the arrived VM. A page whose generation still
// equals the snapshot's holds the content the table's digest describes.
type ArrivalSums struct {
	Table *SumTable
	Gens  dirtytrack.GenVector
}

// resolve returns the arrival digests round one may use for a migration of
// a pages-page VM under alg, or nil when the table does not qualify.
func (a ArrivalSums) resolve(alg checksum.Algorithm, pages int, sent *SumTable) *knownSums {
	sums, ok := a.Table.Sums()
	if !ok || a.Table == sent || a.Table.Alg() != alg || len(sums) != pages || len(a.Gens) != pages {
		return nil
	}
	return &knownSums{sums: sums, gens: a.Gens}
}

func (o *SourceOptions) setDefaults() {
	if o.Alg == 0 {
		o.Alg = checksum.MD5
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 4
	}
	if o.StopThreshold <= 0 {
		o.StopThreshold = 64
	}
}

func (o *SourceOptions) validate() error {
	if !o.Alg.Valid() {
		return fmt.Errorf("core: invalid checksum algorithm")
	}
	// Recycling declares cross-host page identity from checksums alone, so
	// it demands a collision-resistant algorithm. A baseline migration only
	// uses checksums as payload integrity tags verified on the receiving
	// host, where the fast non-cryptographic hashes (fnv, fast64) suffice.
	if (o.Recycle || o.KnownDestSums != nil) && !o.Alg.Strong() {
		return fmt.Errorf("core: %v is not collision-resistant enough for cross-host matching", o.Alg)
	}
	return nil
}

// PageProvider supplies the page content a delta can be based on.
// *checkpoint.Checkpoint implements it.
type PageProvider interface {
	// PageAt returns the content of page frame i, ok=false when the frame
	// is not covered.
	PageAt(frame int) (data []byte, ok bool, err error)
}

// MigrateSource drives the source side of a live migration of v over conn.
// The guest may keep running (writing pages) throughout; the caller's
// Pause hook is invoked before the final stop-and-copy round.
//
// Cancelling ctx aborts the migration: the cancellation is observed at
// every protocol turn-taking point, and — when conn supports deadlines or
// Abort (net.Conn, DeadlineConn) — also interrupts an in-flight blocking
// read or write. The returned error is then ctx.Err().
//
// On success the returned metrics describe the transfer as seen from the
// source. The caller is responsible for writing the outgoing checkpoint
// afterwards (checkpoint.Store.Save) — excluded from the migration time,
// as in the paper's measurements.
func MigrateSource(ctx context.Context, conn io.ReadWriter, v *vm.VM, opts SourceOptions) (m Metrics, err error) {
	ctx = orBackground(ctx)
	stop := watchContext(ctx, conn)
	defer stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()
	opts.setDefaults()
	if err := opts.validate(); err != nil {
		return m, err
	}
	known := opts.Arrival.resolve(opts.Alg, v.NumPages(), opts.SentSums)
	// Reset per attempt: a retry must not inherit a failed attempt's
	// partial recordings.
	opts.SentSums.reset(opts.Alg, v.NumPages())

	start := time.Now()
	cw := &countingWriter{w: conn}
	cr := &countingReader{r: conn}
	// Data direction (frames out) gets a pooled batch-sized buffer; the
	// control direction (acks in) a pooled 64 KiB one.
	w := getDataWriter(cw)
	r := getCtlReader(cr)
	defer putDataWriter(w)
	defer putCtlReader(r)
	defer func() {
		m.BytesSent = cw.n
		m.BytesReceived = cr.n
	}()

	h := hello{
		Version:      ProtocolVersion,
		VMName:       v.Name(),
		PageSize:     vm.PageSize,
		PageCount:    uint64(v.NumPages()),
		Alg:          opts.Alg,
		Recycle:      opts.Recycle,
		SkipAnnounce: opts.Recycle && opts.KnownDestSums != nil,
		// Capability, not a demand: the destination answers with its own
		// compact-announce bit and only then may use the v2 encoding. Old
		// destinations ignore the flag bit entirely.
		CompactAnnounce: !opts.NoCompactAnnounce,
		// Same negotiation shape for coalesced page-range frames: offered
		// here, used only when the ack echoes acceptance.
		RangeFrames: !opts.NoRangeFrames,
	}
	if err := writeHello(w, h); err != nil {
		return m, err
	}
	if err := flush(w); err != nil {
		return m, err
	}

	t, err := readMsgType(r)
	if err != nil {
		return m, err
	}
	if t != msgHelloAck {
		return m, fmt.Errorf("%w: expected hello-ack, got %v", ErrProtocol, t)
	}
	ack, err := readHelloAck(r)
	if err != nil {
		return m, err
	}
	if !ack.OK {
		return m, fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	opts.OnEvent.emit(Event{Kind: EventHello, Pages: int64(v.NumPages()),
		Detail: fmt.Sprintf("have_checkpoint=%v", ack.HaveCheckpoint)})

	// Determine the set of checksums available at the destination.
	var destSums *checksum.Set
	switch {
	case !opts.Recycle || !ack.HaveCheckpoint:
		// Baseline mode, or the destination found no checkpoint: full first
		// round.
	case h.SkipAnnounce:
		destSums = opts.KnownDestSums
	default:
		// The announcement may already sit in r's buffer (read along with
		// the hello-ack), so count what r consumed, not what it pulled off
		// the connection.
		before := cr.n - int64(r.Buffered())
		t, err := readMsgType(r)
		if err != nil {
			return m, err
		}
		switch t {
		case msgHashAnnounce:
			destSums, err = readHashAnnounce(r)
		case msgHashAnnounceV2:
			if !h.CompactAnnounce || !ack.CompactAnnounce {
				return m, fmt.Errorf("%w: compact announce without negotiation", ErrProtocol)
			}
			destSums, err = readHashAnnounceV2(r)
		default:
			return m, fmt.Errorf("%w: expected hash-announce, got %v", ErrProtocol, t)
		}
		if err != nil {
			return m, err
		}
		m.AnnounceBytes = cr.n - int64(r.Buffered()) - before
		m.AnnounceRawBytes = int64(checksum.EncodedSize(destSums.Len()))
		opts.OnEvent.emit(Event{Kind: EventAnnounce, Bytes: m.AnnounceBytes,
			Pages: int64(destSums.Len())})
	}

	// Delta encoding is only sound when the destination actually
	// bootstrapped from its checkpoint — and from the checkpoint this
	// host's mirror describes. A salvage (partial) bootstrap means the
	// destination's RAM holds an interrupted attempt's pages, not the last
	// complete checkpoint, so the delta base is stale by construction.
	if !ack.HaveCheckpoint || !opts.Recycle || ack.PartialCheckpoint {
		opts.DeltaBase = nil
	}
	if ack.PartialCheckpoint {
		opts.OnEvent.emit(Event{Kind: EventSalvage, Detail: "resumed"})
	}

	// Encoders are created once per migration — not per round — and their
	// deflate state comes from a process-wide pool, so an N-worker migration
	// no longer allocates N fresh compressor windows every round.
	cfg := encoderConfig{alg: opts.Alg, destSums: destSums, compress: opts.Compress,
		ranges: h.RangeFrames && ack.RangeFrames, sent: opts.SentSums}
	width := pipelineWidth(opts.Workers)
	encs := make([]*sourceEncoder, 0, width)
	defer func() {
		for _, e := range encs {
			e.release()
		}
	}()
	for len(encs) < width {
		e, err := newSourceEncoder(cfg)
		if err != nil {
			return m, err
		}
		encs = append(encs, e)
	}

	// Reset the dirty log: everything the guest writes from here on must be
	// re-sent in a later round.
	v.HarvestDirty()

	// gateDetail renders the entropy gate's per-round hit rate for round
	// traces (attempted/skipped deltas since the given snapshot).
	gateDetail := func(att, skip int) string {
		if !opts.Compress {
			return ""
		}
		return fmt.Sprintf("gate_attempted=%d gate_skipped=%d",
			m.CompressAttempted-att, m.CompressSkipped-skip)
	}

	// Round 1: walk every page. With a destination checksum set, redundant
	// pages shrink to (page number, checksum). Encoding runs on the worker
	// pool; messages are still emitted in page order. The delta base and
	// the arrival digests apply to round one only.
	m.Rounds = 1
	roundStart := cw.n
	frameStart := m.PageFrames
	attStart, skipStart := m.CompressAttempted, m.CompressSkipped
	if err := runSourcePipeline(ctx, w, v, seqAll(v.NumPages()), encs, opts.DeltaBase, known, &m); err != nil {
		return m, err
	}
	if err := writeRoundEnd(w, 1, uint64(v.DirtyCount())); err != nil {
		return m, err
	}
	if err := flush(w); err != nil {
		return m, err
	}
	opts.OnEvent.emit(Event{Kind: EventRound, Round: 1,
		Pages: int64(v.NumPages()), Bytes: cw.n - roundStart,
		Frames: int64(m.PageFrames - frameStart),
		Detail: gateDetail(attStart, skipStart)})

	// Iterative rounds: resend pages dirtied while the previous round
	// streamed. A dirty page whose new content is already in the
	// destination's checkpoint index still shrinks to a checksum — the
	// destination resolves msgPageSum via its index in any round. The final
	// round runs with the guest paused.
	paused := false
	defer func() {
		if paused && opts.Resume != nil {
			opts.Resume()
		}
	}()
	var dirtyList []int
	for round := 2; ; round++ {
		if err := ctx.Err(); err != nil {
			return m, err
		}
		final := round >= opts.MaxRounds || v.DirtyCount() <= opts.StopThreshold
		if final && !paused {
			if opts.Pause != nil {
				opts.Pause()
			}
			paused = true
			opts.OnEvent.emit(Event{Kind: EventPause, Round: round,
				Pages: int64(v.DirtyCount())})
		}
		dirty := v.HarvestDirty()
		m.Rounds = round
		dirtyList = dirtyList[:0]
		dirty.ForEachSet(func(page int) {
			dirtyList = append(dirtyList, page)
		})
		roundStart = cw.n
		frameStart = m.PageFrames
		attStart, skipStart = m.CompressAttempted, m.CompressSkipped
		if err := runSourcePipeline(ctx, w, v, seqList(dirtyList), encs, nil, nil, &m); err != nil {
			return m, err
		}
		if err := writeRoundEnd(w, uint32(round), uint64(len(dirtyList))); err != nil {
			return m, err
		}
		if err := flush(w); err != nil {
			return m, err
		}
		opts.OnEvent.emit(Event{Kind: EventRound, Round: round,
			Pages: int64(len(dirtyList)), Bytes: cw.n - roundStart,
			Frames: int64(m.PageFrames - frameStart),
			Detail: gateDetail(attStart, skipStart)})
		if final {
			break
		}
	}

	if err := writeMsgType(w, msgDone); err != nil {
		return m, err
	}
	if err := flush(w); err != nil {
		return m, err
	}
	t, err = readMsgType(r)
	if err != nil {
		return m, err
	}
	if t != msgAck {
		return m, fmt.Errorf("%w: expected ack, got %v", ErrProtocol, t)
	}
	if paused {
		opts.OnEvent.emit(Event{Kind: EventResume})
	}
	m.Duration = time.Since(start)
	opts.SentSums.markComplete()
	opts.OnEvent.emit(Event{Kind: EventDone, Bytes: cw.n})
	return m, nil
}

// sendFullPage writes a full-page message, deflated when a compressor is
// configured, the entropy gate admits the page, and it actually shrinks.
func sendFullPage(w io.Writer, page uint64, sum checksum.Sum, data []byte, comp *pageCompressor, m *Metrics) error {
	if comp != nil {
		if !compressible(data) {
			m.CompressSkipped++
			return writePageFull(w, page, sum, data)
		}
		m.CompressAttempted++
		z, ok, err := comp.compress(data)
		if err != nil {
			return err
		}
		if ok {
			m.PagesCompressed++
			m.CompressionSavedBytes += int64(len(data) - len(z) - 4)
			return writePageFullZ(w, page, sum, z)
		}
	}
	return writePageFull(w, page, sum, data)
}

// deltaLimit caps delta size: beyond half a page the full (or compressed)
// encoding is at least as good once framing is paid.
const deltaLimit = vm.PageSize / 2
