package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// DestOptions configures an incoming migration.
type DestOptions struct {
	// Store is consulted for a checkpoint of the incoming VM. May be nil
	// (pure baseline destination).
	Store *checkpoint.Store
	// TrackIncoming records the checksums of all pages observed during the
	// migration, enabling the ping-pong optimization on a later outgoing
	// migration of the same VM back to this peer (§3.2). It only decides
	// whether the merge's page-sum table is exported (DestResult.SeenSums,
	// DestResult.PageSums): a checkpoint-backed merge keeps the table
	// either way, to check checksum frames without rehashing.
	TrackIncoming bool
	// VerifyPayloads re-computes the checksum of every full page received
	// and rejects mismatches. Costs one hash per page; useful under
	// unreliable transports and in tests.
	VerifyPayloads bool
	// Workers pins the destination pipeline width: frame decoding runs on
	// one goroutine while Workers goroutines decompress, verify, resolve
	// checkpoint blocks, apply deltas, and install pages. Installs within a
	// round are disjoint frames and proceed unordered; round boundaries are
	// barriers. Values below 1 derive the width: GOMAXPROCS, capped at 8.
	Workers int
	// NoCompactAnnounce keeps the v1 announcement encoding even when the
	// source advertised the compact-announce capability. For interop testing
	// and as an escape hatch.
	NoCompactAnnounce bool
	// NoRangeFrames refuses the page-range-frame capability even when the
	// source offered it, keeping the per-page v1 page encoding. For interop
	// testing and as an escape hatch.
	NoRangeFrames bool
	// NoSalvage disables salvage checkpoints: a failed incoming migration
	// discards the pages it had installed instead of persisting them as a
	// partial store entry for the next attempt to resume from.
	NoSalvage bool
	// OnEvent, when non-nil, observes each protocol turn (hello, the
	// announcement, round ends, done) for tracing. Emission never alters
	// the wire stream.
	OnEvent EventFunc
}

// DestResult reports the outcome of an incoming migration.
type DestResult struct {
	Metrics Metrics
	// SeenSums is the checksum set of the VM's final arrived state (only
	// when DestOptions.TrackIncoming was set) — by construction the set of
	// blocks the peer's post-migration checkpoint holds, usable as
	// SourceOptions.KnownDestSums on a later return migration.
	SeenSums *checksum.Set
	// UsedCheckpoint reports whether a local checkpoint bootstrapped RAM.
	UsedCheckpoint bool
	// ResumedFromPartial reports that the bootstrap checkpoint was a
	// salvage image left by an interrupted earlier attempt — this
	// migration resumed instead of restarting from zero.
	ResumedFromPartial bool
	// SalvagePages is the number of newly installed pages persisted as a
	// salvage checkpoint after a failed merge; zero when no salvage was
	// written.
	SalvagePages int64
	// UnionBootstrap reports that no servable checkpoint of the arriving VM
	// existed, so the announcement was assembled from the union of all
	// resident store content instead (other VMs' checkpoints, older
	// generations, salvage partials — the content-addressed pool). Implies
	// UsedCheckpoint. The union serves blocks by content but installs
	// nothing into RAM, so ResumedFromPartial stays false.
	UnionBootstrap bool
	// PageSums is the per-page digest table the merge recorded (only when
	// DestOptions.TrackIncoming was set). After a successful migration it
	// covers every page of the arrived state, so the post-migration
	// checkpoint can be ingested via Store.SaveWithSums without a sidecar
	// rehash; after a failure it is partial and Sums reports false.
	PageSums *SumTable
}

// IncomingSession is a half-open incoming migration: the hello has been
// read, so the receiving host knows which VM is arriving and how big it is,
// but nothing has been acknowledged yet. Hosts use this to create or locate
// the destination VM before completing the migration with Run.
type IncomingSession struct {
	h    hello
	conn io.ReadWriter
	w    *bufio.Writer
	r    *bufio.Reader
	cw   *countingWriter
	cr   *countingReader
	// rangeOK records the negotiated page-range-frame capability (set in
	// Run): a range frame from a peer that never negotiated it is a
	// protocol violation.
	rangeOK bool
}

// Accept reads the source's hello from conn and returns the session.
// Cancelling ctx aborts the blocked hello read when conn supports deadlines
// or Abort.
func Accept(ctx context.Context, conn io.ReadWriter) (s *IncomingSession, err error) {
	ctx = orBackground(ctx)
	stop := watchContext(ctx, conn)
	defer stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()
	s = &IncomingSession{
		conn: conn,
		cw:   &countingWriter{w: conn},
		cr:   &countingReader{r: conn},
	}
	// Data direction (frames in) gets a pooled batch-sized buffer; the
	// control direction (acks out) a pooled 64 KiB one. Run and RunPostCopy
	// return them via release().
	s.w = getCtlWriter(s.cw)
	s.r = getDataReader(s.cr)

	t, err := readMsgType(s.r)
	if err != nil {
		return nil, err
	}
	if t != msgHello {
		return nil, fmt.Errorf("%w: expected hello, got %v", ErrProtocol, t)
	}
	s.h, err = readHello(s.r)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// VMName reports the incoming VM's name.
func (s *IncomingSession) VMName() string { return s.h.VMName }

// MemBytes reports the incoming VM's memory size.
func (s *IncomingSession) MemBytes() int64 {
	return int64(s.h.PageCount) * int64(s.h.PageSize)
}

// Reject refuses the migration with the given reason.
func (s *IncomingSession) Reject(reason string) error {
	if err := writeHelloAck(s.w, helloAck{OK: false, Reason: reason}); err != nil {
		return err
	}
	return flush(s.w)
}

// release returns the session's pooled wire buffers. The session must not
// perform I/O afterwards; safe to call more than once.
func (s *IncomingSession) release() {
	if s.w != nil {
		putCtlWriter(s.w)
		s.w = nil
	}
	if s.r != nil {
		putDataReader(s.r)
		s.r = nil
	}
}

// MigrateDest drives the destination side of a live migration into v over
// conn. The VM must be created (all-zero memory) and sized before the call;
// its name and page count are validated against the source's hello.
//
// Checkpoint loading happens between hello and hello-ack. The paper
// excludes this setup from the reported migration time — Metrics.Duration
// here starts after the checkpoint is loaded, matching that accounting.
func MigrateDest(ctx context.Context, conn io.ReadWriter, v *vm.VM, opts DestOptions) (DestResult, error) {
	s, err := Accept(ctx, conn)
	if err != nil {
		return DestResult{}, err
	}
	return s.Run(ctx, v, opts)
}

// Run completes an accepted incoming migration into v. Cancelling ctx
// aborts the merge at the next message boundary (or mid-read when the
// session's connection supports deadlines or Abort).
func (s *IncomingSession) Run(ctx context.Context, v *vm.VM, opts DestOptions) (res DestResult, err error) {
	ctx = orBackground(ctx)
	stop := watchContext(ctx, s.conn)
	defer stop()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = ctx.Err()
		}
	}()
	h := s.h
	w := s.w
	defer s.release()
	defer func() {
		res.Metrics.BytesSent = s.cw.n
		res.Metrics.BytesReceived = s.cr.n
	}()

	if reason := validateHello(h, v); reason != "" {
		_ = writeHelloAck(w, helloAck{OK: false, Reason: reason})
		_ = flush(w)
		return res, fmt.Errorf("%w: %s", ErrRejected, reason)
	}

	// Bootstrap from the local checkpoint if the source wants recycling and
	// we have one. A salvage (partial) image left by an interrupted earlier
	// attempt is served only when the announcement will actually describe
	// it: under skip-announce the source replays the checksum set it
	// learned from the last *complete* checkpoint, which a partial image
	// need not hold, so the bootstrap is skipped rather than risk
	// unresolvable page-sum references.
	var cp *checkpoint.Checkpoint
	partial := false
	union := false
	if h.Recycle && opts.Store != nil {
		if info, ok := opts.Store.Entry(h.VMName); ok && info.State != checkpoint.EntryQuarantined &&
			!(info.State == checkpoint.EntryPartial && h.SkipAnnounce) {
			rcp, rerr := opts.Store.Restore(h.VMName, h.Alg, v)
			if rerr != nil {
				// A corrupt or unreadable checkpoint must not fail the
				// migration; degrade to a full first round. A storage-borne
				// failure (unreadable or torn bytes) will recur on every
				// later bootstrap, so quarantine the entry — the next
				// arrival goes straight to the union/full path and the
				// operator sees it in the scrub report.
				fault := faultfs.Label(rerr)
				opts.OnEvent.emit(Event{Kind: EventDegraded,
					Detail: StageBootstrap + ":" + fault})
				if fault == "eio" || fault == "torn" {
					_ = opts.Store.Quarantine(h.VMName, "bootstrap read failed: "+rerr.Error())
				}
			} else {
				cp = rcp
				partial = info.State == checkpoint.EntryPartial
			}
		}
		if cp == nil && !h.SkipAnnounce {
			// Fresh VM on a warm host: no servable checkpoint of its own, but
			// the content-addressed pool may hold its pages anyway — other
			// VMs' checkpoints, older generations, salvage partials.
			// Announce the union of everything resident. The
			// partial-checkpoint ack bit keeps the source off delta encoding
			// (nothing was installed into v, so there is no delta base) —
			// exactly the salvage-bootstrap rule. Best-effort: a union that
			// fails to open degrades to a plain full first round.
			if ucp, members, uerr := opts.Store.OpenUnion(h.Alg); uerr == nil && ucp != nil {
				cp = ucp
				union = true
				partial = true
				res.UnionBootstrap = true
				opts.OnEvent.emit(Event{Kind: EventUnion,
					Pages:  int64(ucp.SumSet().Len()),
					Detail: fmt.Sprintf("entries=%d", len(members))})
			} else if uerr != nil {
				opts.OnEvent.emit(Event{Kind: EventDegraded,
					Detail: StageUnionRead + ":" + faultfs.Label(uerr)})
			}
		}
	}
	if cp != nil {
		defer cp.Close()
		res.UsedCheckpoint = true
		res.ResumedFromPartial = partial && !union
		opts.OnEvent.emit(Event{Kind: EventSidecar, Detail: cp.Sidecar().String()})
		if res.ResumedFromPartial {
			opts.OnEvent.emit(Event{Kind: EventSalvage, Detail: "resumed",
				Pages: int64(cp.Pages())})
		}
	}

	// tbl is the merge's record of each frame's digest (see SumTable). Only
	// checkpoint-backed frames consult it and only tracking exports it, so a
	// cold untracked merge builds none.
	var tbl *SumTable
	if opts.TrackIncoming || cp != nil {
		tbl = NewSumTable()
		tbl.reset(h.Alg, v.NumPages())
		// A bootstrap that installed the checkpoint into RAM hands over the
		// digests of what it installed; a union installs nothing and seeds
		// nothing.
		if cp != nil {
			tbl.seed(cp.InstalledSums())
		}
	}
	if opts.TrackIncoming {
		res.SeenSums = checksum.NewSet(v.NumPages())
		res.PageSums = tbl
	}

	start := time.Now()
	// The capability holds only when both ends opted in: the source's hello
	// bit and our own configuration. The ack echoes the decision so the
	// source knows which announcement encoding to expect.
	useV2 := h.CompactAnnounce && !opts.NoCompactAnnounce
	s.rangeOK = h.RangeFrames && !opts.NoRangeFrames
	if err := writeHelloAck(w, helloAck{OK: true, HaveCheckpoint: cp != nil,
		CompactAnnounce: useV2, PartialCheckpoint: partial,
		RangeFrames: s.rangeOK}); err != nil {
		return res, err
	}
	opts.OnEvent.emit(Event{Kind: EventHello, Pages: int64(h.PageCount),
		Detail: fmt.Sprintf("have_checkpoint=%v", cp != nil)})
	if cp != nil && !h.SkipAnnounce {
		set := cp.SumSet()
		before := s.cw.n + int64(w.Buffered())
		if useV2 {
			err = writeHashAnnounceV2(w, set)
		} else {
			err = writeHashAnnounce(w, set)
		}
		if err != nil {
			return res, err
		}
		res.Metrics.AnnounceBytes = s.cw.n + int64(w.Buffered()) - before
		res.Metrics.AnnounceRawBytes = int64(checksum.EncodedSize(set.Len()))
		opts.OnEvent.emit(Event{Kind: EventAnnounce, Bytes: res.Metrics.AnnounceBytes,
			Pages: int64(set.Len())})
	}
	if err := flush(w); err != nil {
		return res, err
	}

	if err = s.merge(ctx, v, opts, cp, tbl, &res, start); err != nil {
		// A recycled-page read failure means this entry's bytes lie: the
		// index promised content the disk would not yield. Quarantine it so
		// the retry's announcement comes from the union or nothing and the
		// affected pages flow over the wire instead. Union bootstraps skip
		// the quarantine — the failing block is not attributable to any one
		// entry.
		var me *MigrationError
		if errors.As(err, &me) && me.Stage == StageRecycleRead {
			opts.OnEvent.emit(Event{Kind: EventDegraded,
				Detail: StageRecycleRead + ":" + me.Fault})
			if !union {
				_ = opts.Store.Quarantine(h.VMName, "recycled-page read failed: "+me.Err.Error())
			}
		}
		// The merge has fully drained its workers by the time it returns,
		// so v's RAM is stable: persist the progress as a salvage
		// checkpoint for the next attempt to resume from.
		s.salvage(v, opts, &res)
	}
	return res, err
}

// salvage persists the pages a failed merge had already installed as a
// partial store entry, so the next attempt's hash announcement makes the
// source resend only what is still missing. Best-effort: the migration's
// error stands whether or not the salvage write succeeds. Nothing is
// written when no new page content arrived (checksum-only progress lives
// in the previous checkpoint already, which salvaging would demote).
func (s *IncomingSession) salvage(v *vm.VM, opts DestOptions, res *DestResult) {
	installed := int64(res.Metrics.PagesFull + res.Metrics.PagesDelta)
	if opts.NoSalvage || opts.Store == nil || !s.h.Recycle || installed == 0 {
		return
	}
	if err := opts.Store.SaveSalvage(v); err != nil {
		opts.OnEvent.emit(Event{Kind: EventSalvage, Detail: "write-failed"})
		opts.OnEvent.emit(Event{Kind: EventDegraded,
			Detail: StageSalvage + ":" + faultfs.Label(err)})
		return
	}
	res.SalvagePages = installed
	opts.OnEvent.emit(Event{Kind: EventSalvage, Detail: "written",
		Pages: installed, Bytes: v.MemBytes()})
}

// validateHello returns a rejection reason, or "" to accept.
func validateHello(h hello, v *vm.VM) string {
	switch {
	case h.Version != ProtocolVersion:
		return fmt.Sprintf("protocol version %d unsupported (want %d)", h.Version, ProtocolVersion)
	case h.VMName != v.Name():
		return fmt.Sprintf("VM name %q does not match prepared VM %q", h.VMName, v.Name())
	case h.PageSize != vm.PageSize:
		return fmt.Sprintf("page size %d unsupported (want %d)", h.PageSize, vm.PageSize)
	case h.PageCount != uint64(v.NumPages()):
		return fmt.Sprintf("page count %d does not match prepared VM (%d)", h.PageCount, v.NumPages())
	// Weak (non-collision-resistant) algorithms are acceptable for baseline
	// migrations, where checksums only tag payload integrity; recycling
	// declares cross-host identity from them and demands a strong one.
	case !h.Alg.Valid() || (h.Recycle && !h.Alg.Strong()):
		return fmt.Sprintf("checksum algorithm %v unacceptable", h.Alg)
	default:
		return ""
	}
}
