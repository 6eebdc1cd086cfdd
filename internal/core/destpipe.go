package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/delta"
	"vecycle/internal/vm"
)

// The destination half of the pipelined engine — Listing 1's merge loop,
// extended with full-page installs and round bookkeeping: the decoder stage
// (the calling goroutine) parses frames off the wire, and a worker pool
// decompresses, verifies, resolves checkpoint blocks, applies deltas, and
// installs pages. Within a round the source sends each frame at most once,
// so installs are disjoint and need no ordering; the decoder drains the
// pool (a barrier) at every round boundary before frames can repeat, which
// keeps cross-round semantics last-write-wins.

// destJob carries one parsed page message — a single-page frame or a
// coalesced page-range frame — from the decoder to the workers.
type destJob struct {
	t       msgType
	page    uint64
	sum     checksum.Sum
	payload []byte // raw page, deflate stream, or delta encoding; empty for msgPageSum
	// rng holds the decoded range frame when t is a range tag; its scratch
	// slices are pooled with the job. Payload retention is structurally
	// bounded at MaxRangePages*vm.PageSize by the decoder's validation.
	rng rangeFrame
}

var destJobPool = sync.Pool{New: func() interface{} {
	return &destJob{payload: make([]byte, 0, vm.PageSize)}
}}

func putDestJob(j *destJob) {
	j.payload = j.payload[:0]
	j.rng.reset()
	destJobPool.Put(j)
}

// destWorker is the per-goroutine state of the install pool: a scratch span
// buffer, a lazily created inflater (both in st), and private metrics
// merged after the pool drains.
type destWorker struct {
	v      *vm.VM
	alg    checksum.Algorithm
	verify bool
	cp     *checkpoint.Checkpoint
	st     *destScratch // pooled; acquired at pool start, released after drain
	// tbl is the migration's shared page-sum table (nil on a cold untracked
	// merge). Workers read and write disjoint page slots within a round, so
	// no locking; see SumTable.
	tbl *SumTable
	m   Metrics
}

// process applies one page message to the VM. The decoder has already
// validated the frame number and the payload length, and rejected
// checkpoint-dependent messages when no checkpoint is loaded.
func (ws *destWorker) process(j *destJob) error {
	page := int(j.page)
	switch j.t {
	case msgRangeSum, msgRangeFull, msgRangeFullZ, msgRangeDelta:
		return applyRange(ws.v, ws.cp, ws.alg, ws.verify, &j.rng, ws.st, ws.tbl, &ws.m)

	case msgPageFull:
		if ws.verify {
			if got := ws.alg.Page(j.payload); got != j.sum {
				return fmt.Errorf("%w: page %d payload checksum mismatch", ErrProtocol, page)
			}
		}
		ws.v.InstallPage(page, j.payload)
		ws.tbl.record(page, j.sum)
		ws.m.PagesFull++

	case msgPageFullZ:
		if ws.st.decomp == nil {
			ws.st.decomp = newPageDecompressor()
		}
		buf := ws.st.span(1)
		if err := ws.st.decomp.inflate(j.payload, buf); err != nil {
			return err
		}
		if ws.verify {
			if got := ws.alg.Page(buf); got != j.sum {
				return fmt.Errorf("%w: page %d payload checksum mismatch", ErrProtocol, page)
			}
		}
		ws.v.InstallPage(page, buf)
		ws.tbl.record(page, j.sum)
		ws.m.PagesFull++
		ws.m.PagesCompressed++

	case msgPageSum:
		ws.m.PagesSum++
		// Fast path: the frame already holds this content, by the sum
		// table's record (a bootstrap or earlier install) or, for a frame it
		// has no entry for, by digesting it.
		inPlace := ws.tbl.holds(ws.v, page, j.sum, ws.alg, &ws.m)
		// Either way the page ends up holding content with this digest.
		ws.tbl.record(page, j.sum)
		if inPlace {
			ws.m.PagesReusedInPlace++
			return nil
		}
		// Slow path: resolve the checksum in the checkpoint index and
		// re-read the block from disk (lseek+read of Listing 1).
		data, ok, err := ws.cp.ReadBlock(j.sum)
		if err != nil {
			return recycleReadErr(err)
		}
		if !ok {
			return fmt.Errorf("%w: source referenced checksum %v absent from checkpoint", ErrProtocol, j.sum)
		}
		ws.v.InstallPage(page, data)
		ws.cp.Release(data)
		ws.m.PagesReusedFromDisk++

	case msgPageDelta:
		// The frame still holds bootstrap (checkpoint) content: deltas are
		// first-round only and each round-one frame appears exactly once.
		buf := ws.st.span(1)
		ws.v.ReadPage(page, buf)
		if err := delta.Decode(buf, j.payload, buf); err != nil {
			return fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		// Deltas are always verified: a base mismatch (stale mirror at the
		// source) silently corrupts otherwise.
		if got := ws.alg.Page(buf); got != j.sum {
			return fmt.Errorf("%w: page %d delta produced checksum mismatch (stale delta base?)", ErrProtocol, page)
		}
		ws.v.InstallPage(page, buf)
		ws.tbl.record(page, j.sum)
		ws.m.PagesDelta++
	}
	return nil
}

// merge runs the merge loop: it decodes frames on the calling goroutine and
// fans the page work out to pipelineWidth(opts.Workers) goroutines. Any
// worker error cancels the pipeline's context, whose watcher aborts the
// connection so a decoder blocked mid-read observes the failure; the
// decoder then drains the pool before returning, so no goroutine outlives
// the call.
func (s *IncomingSession) merge(ctx context.Context, v *vm.VM, opts DestOptions, cp *checkpoint.Checkpoint, tbl *SumTable, res *DestResult, start time.Time) (err error) {
	h := s.h
	workers := pipelineWidth(opts.Workers)
	w, r := s.w, s.r

	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Deferred before cancel (LIFO): the watcher is released before the
	// defer-time cancel, so a clean return does not abort the connection.
	stopWatch := watchContext(pctx, s.conn)
	defer stopWatch()

	var (
		stats   pipelineStats
		errMu   sync.Mutex
		workErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if workErr == nil {
			workErr = err
		}
		errMu.Unlock()
		cancel()
	}
	storedErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return workErr
	}

	jobs := make(chan *destJob, workers*2)
	var inflight sync.WaitGroup // page messages dispatched but not yet installed
	var wg sync.WaitGroup
	wks := make([]*destWorker, workers)
	for k := range wks {
		wks[k] = &destWorker{v: v, alg: h.Alg, verify: opts.VerifyPayloads, cp: cp,
			st: getDestScratch(), tbl: tbl}
		wg.Add(1)
		go func(ws *destWorker) {
			defer wg.Done()
			for j := range jobs {
				// After a failure, drain without processing so the decoder
				// never blocks on a full queue.
				if pctx.Err() == nil {
					t0 := time.Now()
					if err := ws.process(j); err != nil {
						fail(err)
					}
					stats.workerBusy.Add(int64(time.Since(t0)))
				}
				putDestJob(j)
				inflight.Done()
			}
		}(wks[k])
	}
	defer func() {
		close(jobs)
		wg.Wait()
		for _, ws := range wks {
			res.Metrics.addPageCounters(ws.m)
			putDestScratch(ws.st)
		}
		res.Metrics.Stages.add(stats.stageMetrics())
	}()

	// retErr prefers a worker's error over the decoder's own: once a worker
	// fails, the connection is aborted and the decoder's read error is just
	// the echo of that abort.
	retErr := func(err error) error {
		if werr := storedErr(); werr != nil {
			return werr
		}
		return err
	}

	roundStart := s.cr.n
	frameStart := 0
	// rangeFloor is where the next range frame may start (ranges are
	// ascending and disjoint within a round); reset at each round boundary.
	var rangeFloor uint64
	for {
		if err := pctx.Err(); err != nil {
			return retErr(err)
		}
		t0 := time.Now()
		t, err := readMsgType(r)
		if err != nil {
			return retErr(err)
		}
		switch t {
		case msgRangeSum, msgRangeFull, msgRangeFullZ, msgRangeDelta:
			if !s.rangeOK {
				return retErr(fmt.Errorf("%w: %v received without range-frame negotiation", ErrProtocol, t))
			}
			if cp == nil && (t == msgRangeSum || t == msgRangeDelta) {
				return retErr(fmt.Errorf("%w: %v received without a checkpoint", ErrProtocol, t))
			}
			j := destJobPool.Get().(*destJob)
			j.t = t
			if err := readRangeFrame(r, t, v.NumPages(), rangeFloor, &j.rng); err != nil {
				putDestJob(j)
				return retErr(err)
			}
			rangeFloor = j.rng.start + uint64(j.rng.count)
			res.Metrics.PageFrames++
			res.Metrics.RangeFrames++
			stats.ingestBusy.Add(int64(time.Since(t0)))
			stats.batches.Add(1)
			t1 := time.Now()
			inflight.Add(1)
			select {
			case jobs <- j:
			case <-pctx.Done():
				inflight.Done()
				putDestJob(j)
				return retErr(pctx.Err())
			}
			stats.ingestStall.Add(int64(time.Since(t1)))

		case msgPageFull, msgPageFullZ, msgPageSum, msgPageDelta:
			page, sum, err := readPageHeader(r)
			if err != nil {
				return retErr(err)
			}
			if page >= uint64(v.NumPages()) {
				return fmt.Errorf("%w: page %d out of range", ErrProtocol, page)
			}
			if cp == nil && (t == msgPageSum || t == msgPageDelta) {
				return fmt.Errorf("%w: %v received without a checkpoint", ErrProtocol, t)
			}
			res.Metrics.PageFrames++
			j := destJobPool.Get().(*destJob)
			j.t, j.page, j.sum = t, page, sum
			switch t {
			case msgPageFull:
				j.payload = j.payload[:vm.PageSize]
				if _, err := io.ReadFull(r, j.payload); err != nil {
					putDestJob(j)
					return retErr(fmt.Errorf("core: read page %d payload: %w", page, err))
				}
			case msgPageFullZ, msgPageDelta:
				n, err := readPayloadLen(r, t)
				if err != nil {
					putDestJob(j)
					return retErr(err)
				}
				j.payload = j.payload[:n]
				if _, err := io.ReadFull(r, j.payload); err != nil {
					putDestJob(j)
					return retErr(fmt.Errorf("core: read page %d payload: %w", page, err))
				}
			}
			stats.ingestBusy.Add(int64(time.Since(t0)))
			stats.batches.Add(1)
			t1 := time.Now()
			inflight.Add(1)
			select {
			case jobs <- j:
			case <-pctx.Done():
				inflight.Done()
				putDestJob(j)
				return retErr(pctx.Err())
			}
			stats.ingestStall.Add(int64(time.Since(t1)))

		case msgRoundEnd:
			round, dirty, err := readRoundEnd(r)
			if err != nil {
				return retErr(err)
			}
			// Barrier: the next round may retransmit any frame, so all of
			// this round's installs must land first (last write wins).
			inflight.Wait()
			if werr := storedErr(); werr != nil {
				return werr
			}
			res.Metrics.Rounds++
			opts.OnEvent.emit(Event{Kind: EventRound, Round: int(round),
				Pages: int64(dirty), Bytes: s.cr.n - roundStart,
				Frames: int64(res.Metrics.PageFrames - frameStart)})
			roundStart = s.cr.n
			frameStart = res.Metrics.PageFrames
			rangeFloor = 0

		case msgDone:
			inflight.Wait()
			if werr := storedErr(); werr != nil {
				return werr
			}
			if err := writeMsgType(w, msgAck); err != nil {
				return err
			}
			if err := flush(w); err != nil {
				return err
			}
			res.Metrics.Duration = time.Since(start)
			opts.OnEvent.emit(Event{Kind: EventDone, Bytes: s.cr.n})
			// All installs have landed (inflight barrier above), so the sum
			// table is the final arrived state. Its set is exactly "the set
			// of pages existing at the source" (§3.2): the source
			// checkpoints its paused final state, which is what this VM now
			// holds — the sound basis for a later ping-pong return leg. The
			// table carries each page's last installed digest (stale
			// intermediate contents were overwritten in the table just as in
			// RAM), so finishTrack folds it into the set and hashes only
			// pages no frame ever covered.
			if opts.TrackIncoming {
				hashed, avoided := tbl.finishTrack(v, res.SeenSums)
				res.Metrics.HashBytes += hashed
				res.Metrics.HashAvoidedBytes += avoided
			}
			return nil

		default:
			return fmt.Errorf("%w: unexpected %v during merge", ErrProtocol, t)
		}
	}
}

// readPayloadLen reads and validates the u32 length prefix of a compressed
// or delta payload.
func readPayloadLen(r io.Reader, t msgType) (int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, fmt.Errorf("core: read %v length: %w", t, err)
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	// A compressed page must shrink; a delta may at most reach a full page.
	limit := vm.PageSize
	if t == msgPageFullZ {
		limit = vm.PageSize - 1
	}
	if n == 0 || n > limit {
		return 0, fmt.Errorf("%w: %v payload length %d out of range", ErrProtocol, t, n)
	}
	return n, nil
}
