package core

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// checkTrackedResult asserts the hash-once contract after a successful
// tracked migration: the page-sum table is complete, every recorded sum
// matches an independent digest of the installed memory, the SeenSums set
// is exactly what the old full-image collectSums pass would have produced,
// and the round-end pass digested nothing (every byte's sum was recycled).
func checkTrackedResult(t *testing.T, dst *vm.VM, res DestResult) {
	t.Helper()
	if res.PageSums == nil {
		t.Fatal("tracked migration returned no page-sum table")
	}
	sums, ok := res.PageSums.Sums()
	if !ok {
		t.Fatal("page-sum table incomplete after a successful tracked run")
	}
	alg := res.PageSums.Alg()
	for i := 0; i < dst.NumPages(); i++ {
		if want := dst.PageSum(i, alg); sums[i] != want {
			t.Fatalf("page %d: table sum %x, independent digest %x", i, sums[i], want)
		}
	}
	// The table-backed SeenSums must equal the legacy full-scan reference.
	ref := checksum.NewSet(dst.NumPages())
	collectSums(dst, alg, ref)
	if got, want := res.SeenSums.Len(), ref.Len(); got != want {
		t.Fatalf("SeenSums has %d distinct sums, full scan has %d", got, want)
	}
	for i := 0; i < dst.NumPages(); i++ {
		if s := dst.PageSum(i, alg); !res.SeenSums.Contains(s) {
			t.Fatalf("SeenSums missing page %d's sum", i)
		}
	}
	if res.Metrics.HashBytes != 0 {
		t.Errorf("round-end pass digested %d bytes, want 0 (all sums recorded at install)", res.Metrics.HashBytes)
	}
	// The track pass recycles the whole image; on top, every in-place
	// check of a page-sum frame either hit the table (avoided) or digested
	// the frame (probe).
	checks := int64(res.Metrics.PagesSum) * vm.PageSize
	if got, want := res.Metrics.HashAvoidedBytes, dst.MemBytes()+checks-res.Metrics.ProbeHashBytes; got != want {
		t.Errorf("HashAvoidedBytes = %d, want %d (whole image + %d checked - %d probed)",
			got, want, checks, res.Metrics.ProbeHashBytes)
	}
}

// TestSumTableEquivalence drives every frame kind that can install a page —
// coalesced range frames, individual full pages, checksum-only recycling,
// XBZRLE deltas — at every engine width, and pins the recorded table
// against an independent rehash of the final memory.
func TestSumTableEquivalence(t *testing.T) {
	const pages = 512
	scenarios := []struct {
		name string
		run  func(t *testing.T, workers int)
	}{
		{"range-frames", func(t *testing.T, workers int) {
			// Cold first round: every page arrives as a full payload,
			// coalesced into range frames carrying per-page sum arrays.
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			dst := newVM(t, "vm0", pages, 2)
			_, res := migrate(t, src, dst,
				SourceOptions{Workers: workers},
				DestOptions{Workers: workers, TrackIncoming: true, VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			checkTrackedResult(t, dst, res)
		}},
		{"legacy-per-page", func(t *testing.T, workers int) {
			// Range frames withheld: the same cold round lands as
			// individual msgPageFull/FullZ frames.
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			dst := newVM(t, "vm0", pages, 2)
			_, res := migrate(t, src, dst,
				SourceOptions{Workers: workers, NoRangeFrames: true},
				DestOptions{Workers: workers, TrackIncoming: true, VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			checkTrackedResult(t, dst, res)
		}},
		{"recycled", func(t *testing.T, workers int) {
			// Destination holds a warm checkpoint: most pages arrive as
			// checksum-only frames resolved out of the image, the dirtied
			// rest as payloads.
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			store := newStore(t)
			if err := store.Save(src); err != nil {
				t.Fatal(err)
			}
			src.TouchRandomPages(40)
			dst := newVM(t, "vm0", pages, 2)
			_, res := migrate(t, src, dst,
				SourceOptions{Recycle: true, Workers: workers},
				DestOptions{Store: store, Workers: workers, TrackIncoming: true, VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if !res.UsedCheckpoint {
				t.Fatal("checkpoint not used")
			}
			checkTrackedResult(t, dst, res)
		}},
		{"delta", func(t *testing.T, workers int) {
			// Both sides share a base; partially-dirtied pages travel as
			// XBZRLE deltas, installed after verification.
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.95); err != nil {
				t.Fatal(err)
			}
			destStore, srcStore := newStore(t), newStore(t)
			if err := destStore.Save(src); err != nil {
				t.Fatal(err)
			}
			if err := srcStore.Save(src); err != nil {
				t.Fatal(err)
			}
			base, err := srcStore.Restore("vm0", checksum.MD5, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer base.Close()
			partialUpdate(t, src, []int{3, 7, 11, 19, 23, 29, 31, 37, 41, 43})
			dst := newVM(t, "vm0", pages, 2)
			sm, res := migrate(t, src, dst,
				SourceOptions{Recycle: true, Workers: workers, DeltaBase: base},
				DestOptions{Store: destStore, Workers: workers, TrackIncoming: true, VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if sm.PagesDelta == 0 {
				t.Fatal("delta scenario sent no delta frames")
			}
			checkTrackedResult(t, dst, res)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range []int{0, 1, 2, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					sc.run(t, workers)
				})
			}
		})
	}
}

// TestSumTableUntracked: without TrackIncoming there is no table to build.
func TestSumTableUntracked(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	_, res := migrate(t, src, dst, SourceOptions{}, DestOptions{VerifyPayloads: true})
	if res.PageSums != nil {
		t.Error("untracked migration built a page-sum table")
	}
}

// TestSumTableCorruptionTeardown: a verify failure aborts the migration
// mid-stream; the partial table must refuse to pose as complete, so no
// caller can feed a half-built digest set into SaveWithSums.
func TestSumTableCorruptionTeardown(t *testing.T) {
	src := newVM(t, "vm0", 64, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 64, 2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	evil := &corruptConn{Conn: a, target: 10_000}
	var (
		wg   sync.WaitGroup
		dres DestResult
		derr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = MigrateSource(context.Background(), evil, src, SourceOptions{})
	}()
	go func() {
		defer wg.Done()
		dres, derr = MigrateDest(context.Background(), b, dst,
			DestOptions{TrackIncoming: true, VerifyPayloads: true})
		b.Close()
	}()
	wg.Wait()
	if derr == nil {
		t.Fatal("corrupted stream accepted")
	}
	if dres.PageSums == nil {
		t.Fatal("tracked teardown dropped the table entirely (nil)")
	}
	if _, ok := dres.PageSums.Sums(); ok {
		t.Error("aborted migration's table claims completeness")
	}
}

// TestSumTableSalvage: an interrupted tracked attempt leaves an incomplete
// table; the resumed attempt — bootstrapping from the salvage image —
// still ends with a complete, correct one, because round one walks every
// page regardless of how the destination resolves it.
func TestSumTableSalvage(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(map[int]string{0: "default", 4: "pipelined"}[workers], func(t *testing.T) {
			const pages = 512
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.95); err != nil {
				t.Fatal(err)
			}
			store := newStore(t)
			dst1 := newVM(t, "vm0", pages, 2)
			dres, serr, derr := cutMigration(t, src, dst1, 1_200_000,
				SourceOptions{Recycle: true, Workers: workers},
				DestOptions{Store: store, Workers: workers, TrackIncoming: true, VerifyPayloads: true})
			if serr == nil || derr == nil {
				t.Fatalf("cut migration succeeded (source=%v dest=%v)", serr, derr)
			}
			if dres.SalvagePages == 0 {
				t.Fatal("no salvage progress")
			}
			if dres.PageSums != nil {
				if _, ok := dres.PageSums.Sums(); ok {
					t.Error("interrupted attempt's table claims completeness")
				}
			}
			dst2 := newVM(t, "vm0", pages, 3)
			_, dres2 := migrate(t, src, dst2,
				SourceOptions{Recycle: true, Workers: workers},
				DestOptions{Store: store, Workers: workers, TrackIncoming: true, VerifyPayloads: true})
			if !src.MemEqual(dst2) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst2))
			}
			if !dres2.ResumedFromPartial {
				t.Error("destination did not report a partial bootstrap")
			}
			checkTrackedResult(t, dst2, dres2)
		})
	}
}

// TestSourceSentSums pins the source-side half of the lifecycle: with a
// SentSums table supplied, a completed migration leaves the table holding
// the digest of every page's final (paused) state — the exact table the
// KeepCheckpoint save hands to SaveWithSums.
func TestSourceSentSums(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const pages = 512
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.9); err != nil {
				t.Fatal(err)
			}
			dst := newVM(t, "vm0", pages, 2)
			sent := NewSumTable()
			_, _ = migrate(t, src, dst,
				SourceOptions{Workers: workers, SentSums: sent},
				DestOptions{VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			sums, ok := sent.Sums()
			if !ok {
				t.Fatal("source table incomplete after a clean migration")
			}
			for i := 0; i < src.NumPages(); i++ {
				if want := src.PageSum(i, sent.Alg()); sums[i] != want {
					t.Fatalf("page %d: sent sum %x, paused state digests to %x", i, sums[i], want)
				}
			}
		})
	}
}
