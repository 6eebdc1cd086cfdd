package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

const goldenPages = 600

// fillGolden writes the pre-checkpoint state: compressible pages, random
// pages, and a tail of zero pages — all deterministic, so every call
// reconstructs the identical guest.
func fillGolden(src *vm.VM) {
	rng := rand.New(rand.NewSource(1234))
	buf := make([]byte, vm.PageSize)
	for i := 0; i < 240; i++ { // low-entropy: exercises deflate
		for j := range buf {
			buf[j] = byte((j % 32) * (i + 1))
		}
		src.WritePage(i, buf)
	}
	for i := 240; i < 480; i++ { // high-entropy: deflate falls back to raw
		rng.Read(buf)
		src.WritePage(i, buf)
	}
	// 480..599 stay zero.
}

// mutateGolden diverges the guest from its checkpoint: small in-place edits
// (delta-friendly), full rewrites (delta too large), everything else left
// matching (checksum-eliminated).
func mutateGolden(src *vm.VM) {
	rng := rand.New(rand.NewSource(5678))
	buf := make([]byte, vm.PageSize)
	for i := 240; i < 300; i++ {
		src.ReadPage(i, buf)
		for k := 0; k < 8; k++ {
			buf[(k*571)%vm.PageSize] ^= 0x5a
		}
		src.WritePage(i, buf)
	}
	for i := 300; i < 360; i++ {
		rng.Read(buf)
		src.WritePage(i, buf)
	}
	for i := 360; i < 420; i++ { // compressible rewrites: range-full-z runs
		for j := range buf {
			buf[j] = byte((j % 16) * (i + 3))
		}
		src.WritePage(i, buf)
	}
	for i := 420; i < 440; i++ { // mid-entropy rewrites: half random, half
		// zero — between the gate's clear-cut classes, lands on the
		// compressible side and must classify identically at every width
		rng.Read(buf[:vm.PageSize/2])
		for j := vm.PageSize / 2; j < vm.PageSize; j++ {
			buf[j] = 0
		}
		src.WritePage(i, buf)
	}
}

// goldenPause generates the round-2 (stop-and-copy) traffic: one page whose
// new content already sits in the destination checkpoint (iterative-round
// checksum elimination), one genuinely new random page, one compressible
// page.
func goldenPause(src *vm.VM) {
	buf := make([]byte, vm.PageSize)
	src.ReadPage(5, buf) // page 5 is unchanged checkpoint content
	src.WritePage(520, buf)
	rand.New(rand.NewSource(91)).Read(buf)
	src.WritePage(521, buf)
	for j := range buf {
		buf[j] = byte(j % 7)
	}
	src.WritePage(522, buf)
}

// recordConn tees everything the source writes. The recording is read only
// after the migration goroutines are joined.
type recordConn struct {
	net.Conn
	rec bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.rec.Write(p)
	return c.Conn.Write(p)
}

// goldenRun migrates a freshly reconstructed golden guest with the given
// worker count and returns the exact byte stream the source emitted.
// onEvent, when non-nil, is installed on both endpoints — the golden
// comparison then proves observability never reaches the wire. legacy pins
// both endpoints to the per-page v1 stream (no range frames).
func goldenRun(t *testing.T, workers int, onEvent EventFunc, legacy bool) ([]byte, Metrics, *vm.VM) {
	t.Helper()
	return goldenRunWith(t, workers, onEvent, legacy, false)
}

// goldenRunWith is goldenRun; with arrival set, the source also holds an
// arrival table recorded at checkpoint time, so round one digests only the
// pages mutateGolden rewrote.
func goldenRunWith(t *testing.T, workers int, onEvent EventFunc, legacy, arrival bool) ([]byte, Metrics, *vm.VM) {
	t.Helper()
	src, err := vm.New(vm.Config{Name: "vm0", MemBytes: goldenPages * vm.PageSize, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fillGolden(src)
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	var arr ArrivalSums
	if arrival {
		arr = arrivalOf(src, checksum.MD5)
	}
	mutateGolden(src)
	base, err := store.Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()

	dst := newVM(t, "vm0", goldenPages, int64(1000+workers))
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := &recordConn{Conn: a}

	var (
		wg   sync.WaitGroup
		sm   Metrics
		serr error
		derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		sm, serr = MigrateSource(context.Background(), rc, src, SourceOptions{
			Recycle:       true,
			Compress:      true,
			DeltaBase:     base,
			Workers:       workers,
			NoRangeFrames: legacy,
			Arrival:       arr,
			Pause:         func() { goldenPause(src) },
			OnEvent:       onEvent,
		})
	}()
	go func() {
		defer wg.Done()
		// The destination merges at half the source's width (the derived
		// width when that rounds to zero), so the golden stream is also
		// decoded at several merge widths.
		_, derr = MigrateDest(context.Background(), b, dst, DestOptions{
			Store:          store,
			VerifyPayloads: true,
			Workers:        workers / 2,
			NoRangeFrames:  legacy,
			OnEvent:        onEvent,
		})
	}()
	wg.Wait()
	if serr != nil {
		t.Fatalf("workers=%d: source: %v", workers, serr)
	}
	if derr != nil {
		t.Fatalf("workers=%d: destination: %v", workers, derr)
	}
	if !src.MemEqual(dst) {
		t.Fatalf("workers=%d: memory differs at page %d", workers, src.FirstDifference(dst))
	}
	return rc.rec.Bytes(), sm, src
}

// goldenDigest and goldenLegacyDigest are the SHA-256 of the golden
// scenario's wire stream — range frames negotiated, and the per-page v1
// fallback — as the single-goroutine source engine emitted it before the
// pipeline became the only engine. Every width must reproduce them byte
// for byte; the recording ran with no event hook.
const (
	goldenDigest       = "cea3a9b2ae1e68a9f464b86b7d57e55e5091670711f0cb2a8ef340f07c183c2a"
	goldenLegacyDigest = "d8ba58f24741fbb99ae01382584fcb4d8a1745138e5edd62a0334149a7732d73"
)

func streamDigest(stream []byte) string {
	sum := sha256.Sum256(stream)
	return hex.EncodeToString(sum[:])
}

// TestGoldenStreamEquivalence asserts the source emits the pinned golden
// stream at several worker counts, with compression, deltas, checksum
// elimination, and a second round all active. Every run has an event hook
// installed, so equality also proves observability is about the stream,
// never in it.
func TestGoldenStreamEquivalence(t *testing.T) {
	var gm Metrics
	for i, workers := range []int{1, 2, 8} {
		var events atomic.Int64
		stream, sm, _ := goldenRun(t, workers, func(Event) { events.Add(1) }, false)
		if events.Load() == 0 {
			t.Fatalf("workers=%d: no events observed", workers)
		}
		if got := streamDigest(stream); got != goldenDigest {
			t.Fatalf("workers=%d: stream digest %s (%d bytes), want the pinned %s",
				workers, got, len(stream), goldenDigest)
		}
		if i == 0 {
			gm = sm
			continue
		}
		if sm.PagesFull != gm.PagesFull || sm.PagesSum != gm.PagesSum ||
			sm.PagesDelta != gm.PagesDelta || sm.PagesCompressed != gm.PagesCompressed ||
			sm.CompressAttempted != gm.CompressAttempted ||
			sm.CompressSkipped != gm.CompressSkipped ||
			sm.PageFrames != gm.PageFrames || sm.RangeFrames != gm.RangeFrames ||
			sm.BytesSent != gm.BytesSent {
			t.Errorf("workers=%d: metrics diverge: got %+v want %+v", workers, sm, gm)
		}
	}
	// The scenario must actually exercise every encoding.
	if gm.PagesSum == 0 || gm.PagesFull == 0 || gm.PagesDelta == 0 || gm.PagesCompressed == 0 {
		t.Fatalf("golden scenario too narrow: %+v", gm)
	}
	// And both entropy-gate outcomes: random rewrites must skip deflate,
	// compressible ones must attempt it.
	if gm.CompressAttempted == 0 || gm.CompressSkipped == 0 {
		t.Fatalf("entropy gate unexercised: attempted=%d skipped=%d",
			gm.CompressAttempted, gm.CompressSkipped)
	}
	if gm.Rounds < 2 {
		t.Fatalf("golden scenario ran %d round(s), want >= 2", gm.Rounds)
	}
	// Range frames are on by default, and the scenario's same-treatment runs
	// must actually coalesce — otherwise the variants above only re-prove the
	// per-page path.
	if gm.RangeFrames == 0 {
		t.Fatal("golden scenario emitted no range frames")
	}
	if gm.PageFrames >= gm.PagesSum+gm.PagesFull+gm.PagesDelta {
		t.Fatalf("PageFrames = %d not below page count %d; nothing coalesced",
			gm.PageFrames, gm.PagesSum+gm.PagesFull+gm.PagesDelta)
	}
}

// TestGoldenStreamLegacyV1 pins the unnegotiated fallback: with range
// frames disabled on either side the wire stream is the per-page v1
// encoding, the pinned legacy stream at every pipeline width — and
// genuinely different bytes from the negotiated range-frame stream.
func TestGoldenStreamLegacyV1(t *testing.T) {
	var legacy []byte
	var lm Metrics
	for _, workers := range []int{1, 2, 8} {
		stream, sm, _ := goldenRun(t, workers, nil, true)
		if got := streamDigest(stream); got != goldenLegacyDigest {
			t.Fatalf("workers=%d: legacy stream digest %s (%d bytes), want the pinned %s",
				workers, got, len(stream), goldenLegacyDigest)
		}
		if sm.RangeFrames != 0 {
			t.Errorf("workers=%d: legacy run emitted %d range frames", workers, sm.RangeFrames)
		}
		legacy, lm = stream, sm
	}
	// v1 is strictly one frame per page.
	if pages := lm.PagesSum + lm.PagesFull + lm.PagesDelta; lm.PageFrames != pages {
		t.Fatalf("legacy PageFrames = %d, want one per page (%d)", lm.PageFrames, pages)
	}
	// The negotiated stream must actually differ — coalescing reaches the
	// wire — while the page-level metrics stay identical (classification is
	// unchanged, only the framing is).
	ranged, rm, _ := goldenRun(t, 1, nil, false)
	if bytes.Equal(ranged, legacy) {
		t.Error("negotiated and legacy streams are identical; range frames never hit the wire")
	}
	if len(ranged) >= len(legacy) {
		t.Errorf("range-frame stream is %d bytes, not smaller than v1's %d", len(ranged), len(legacy))
	}
	if rm.PagesSum != lm.PagesSum || rm.PagesFull != lm.PagesFull ||
		rm.PagesDelta != lm.PagesDelta || rm.PagesCompressed != lm.PagesCompressed ||
		rm.CompressAttempted != lm.CompressAttempted ||
		rm.CompressSkipped != lm.CompressSkipped {
		t.Errorf("page classification changed with framing: ranged %+v legacy %+v", rm, lm)
	}
}

// TestPipelineStageMetrics checks every run populates the per-stage
// counters, at the derived width (0) as at pinned ones.
func TestPipelineStageMetrics(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		_, m, _ := goldenRun(t, workers, nil, false)
		if m.Stages.Batches == 0 {
			t.Errorf("workers=%d: run recorded no pipeline batches", workers)
		}
		if m.Stages.WorkerBusy == 0 {
			t.Errorf("workers=%d: run recorded no worker busy time", workers)
		}
	}
}

// TestIterativeRoundSumElimination verifies the satellite behavior: a page
// dirtied between rounds whose new content already exists in the
// destination's checkpoint crosses the wire as a bare checksum, in any
// round — not just the first.
func TestIterativeRoundSumElimination(t *testing.T) {
	src := newVM(t, "vm0", 128, 1)
	if err := src.FillRandom(0.95); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 128, 2)

	pause := func() {
		// Page 100's new content duplicates page 3 — present in the
		// destination checkpoint, so rounds >= 2 can still eliminate it.
		buf := make([]byte, vm.PageSize)
		src.ReadPage(3, buf)
		src.WritePage(100, buf)
		// Page 101 gets content the checkpoint cannot know.
		rand.New(rand.NewSource(424242)).Read(buf)
		src.WritePage(101, buf)
	}
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true, Pause: pause},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	// Round 1 eliminates all 128 pages; round 2 eliminates page 100 again.
	if sm.PagesSum != 129 {
		t.Errorf("PagesSum = %d, want 129 (dirty page with checkpointed content not eliminated)", sm.PagesSum)
	}
	if sm.PagesFull != 1 {
		t.Errorf("PagesFull = %d, want 1", sm.PagesFull)
	}
	// Page 100's frame held stale content, so the destination repaired it
	// from the checkpoint file.
	if dres.Metrics.PagesReusedFromDisk == 0 {
		t.Error("destination never re-read a checkpoint block")
	}
}

// slowWriter models a link slower than the encoders: every write sleeps,
// then succeeds.
type slowWriter struct{ d time.Duration }

func (s slowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.d)
	return len(p), nil
}

// TestStageStallSplit pins the sequencer's two distinct stall accounts: a
// slow wire backs up the in-order emit queue (ingest stall), a saturated
// worker pool backs up the jobs handoff (dispatch stall). The old single
// counter conflated the two bottlenecks.
func TestStageStallSplit(t *testing.T) {
	const pages = 4096 // 16 batches: enough handoffs for the stalls to separate
	v, err := vm.New(vm.Config{Name: "stall-vm", MemBytes: pages * vm.PageSize, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}

	// Emitter backpressure: checksum-only encoding is far faster than a
	// 30ms-per-write wire, so the sequencer's waits land on the ordered
	// send, not on worker dispatch.
	conn := readWriter{bytes.NewReader(scriptedPeer(t)), slowWriter{30 * time.Millisecond}}
	sm, err := MigrateSource(context.Background(), conn, v, SourceOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Stages.IngestStall == 0 {
		t.Error("slow wire produced no ingest stall")
	}
	if sm.Stages.IngestStall <= sm.Stages.DispatchStall {
		t.Errorf("slow wire: ingest stall %v not above dispatch stall %v",
			sm.Stages.IngestStall, sm.Stages.DispatchStall)
	}

	// Worker backpressure: an instant wire and a single worker grinding
	// through deflate of random pages moves the sequencer's waits to the
	// jobs handoff.
	conn = readWriter{bytes.NewReader(scriptedPeer(t)), io.Discard}
	sm, err = MigrateSource(context.Background(), conn, v, SourceOptions{Workers: 1, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if sm.Stages.DispatchStall == 0 {
		t.Error("saturated pool produced no dispatch stall")
	}
	if sm.Stages.DispatchStall <= sm.Stages.IngestStall {
		t.Errorf("saturated pool: dispatch stall %v not above ingest stall %v",
			sm.Stages.DispatchStall, sm.Stages.IngestStall)
	}

	// The destination has no dispatch split — its decoder's only handoff is
	// the jobs send, accounted as ingest — so its DispatchStall stays zero
	// at any width.
	src := newVM(t, "vm0", 256, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 256, 2)
	_, dres := migrate(t, src, dst, SourceOptions{Workers: 2}, DestOptions{Workers: 4})
	if dres.Metrics.Stages.DispatchStall != 0 {
		t.Errorf("destination recorded dispatch stall %v, want 0", dres.Metrics.Stages.DispatchStall)
	}
	if dres.Metrics.Stages.Batches == 0 {
		t.Error("destination pipeline recorded no batches")
	}
}

// countConn counts bytes written while passing deadlines through to the
// underlying net.Conn.
type countConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// waitGoroutines fails the test if the goroutine count does not return to
// the baseline within a grace period.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelineCancellationNoLeak cancels a pipelined migration mid-stream
// on both sides and verifies every stage goroutine exits.
func TestPipelineCancellationNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	src := newVM(t, "vm0", 2048, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 2048, 2)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cc := &countConn{Conn: a}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(ctx, NewDeadlineConn(cc, time.Second), src, SourceOptions{Workers: 4})
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(ctx, NewDeadlineConn(b, time.Second), dst, DestOptions{Workers: 4})
	}()
	// Cancel once the transfer is demonstrably mid-stream.
	for cc.n.Load() < 512*1024 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	if !errors.Is(serr, context.Canceled) {
		t.Errorf("source error = %v, want context.Canceled", serr)
	}
	if !errors.Is(derr, context.Canceled) {
		t.Errorf("destination error = %v, want context.Canceled", derr)
	}
	waitGoroutines(t, base)
}

// TestPipelineFaultResetNoLeak injects a mid-stream connection reset under
// pipelined engines on both sides and verifies clean teardown.
func TestPipelineFaultResetNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	src := newVM(t, "vm0", 512, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 512, 2)

	a, b := net.Pipe()
	cut := NewFaultConn(a, FaultConfig{ResetAfterBytes: 300_000})

	var wg sync.WaitGroup
	var serr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(context.Background(), cut, src, SourceOptions{Workers: 4})
		a.Close() // unblock the destination's pending read
	}()
	go func() {
		defer wg.Done()
		_, _ = MigrateDest(context.Background(), b, dst, DestOptions{Workers: 4})
		b.Close()
	}()
	wg.Wait()
	if !errors.Is(serr, ErrInjectedReset) {
		t.Errorf("source error = %v, want ErrInjectedReset", serr)
	}
	waitGoroutines(t, base)
}

// TestDestWorkerErrorAbortsDecoder injects a payload corruption that only a
// destination worker can detect and verifies the failure propagates out of
// the decoder (which would otherwise stay blocked reading) without leaks.
func TestDestWorkerErrorAbortsDecoder(t *testing.T) {
	base := runtime.NumGoroutine()
	src := newVM(t, "vm0", 512, 1)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 512, 2)

	a, b := net.Pipe()
	// Flip one byte inside the 100th page's payload on the wire.
	corrupt := &corruptConn{Conn: a, target: 150_000}

	var wg sync.WaitGroup
	var serr, derr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, serr = MigrateSource(context.Background(), NewDeadlineConn(corrupt, time.Second), src, SourceOptions{})
		a.Close()
	}()
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(context.Background(), NewDeadlineConn(b, time.Second), dst, DestOptions{Workers: 4, VerifyPayloads: true})
		b.Close()
	}()
	wg.Wait()
	if !errors.Is(derr, ErrProtocol) {
		t.Errorf("destination error = %v, want ErrProtocol (checksum mismatch)", derr)
	}
	if serr == nil {
		t.Error("source finished cleanly against an aborted destination")
	}
	waitGoroutines(t, base)
}
