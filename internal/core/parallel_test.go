package core

import "testing"

// TestParallelChecksumEquivalence verifies that the multi-worker first
// round (§3.4's checksum-rate remedy) is observationally identical at the
// derived width (0) and at pinned ones: same transfer decisions, same
// destination memory.
func TestParallelChecksumEquivalence(t *testing.T) {
	// 300 pages: deliberately not a multiple of the 256-page batch.
	src := newVM(t, "vm0", 300, 1)
	rd, err := src.NewRamdisk(0.9)
	if err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	if err := rd.UpdatePercent(30); err != nil {
		t.Fatal(err)
	}

	var results []Metrics
	for _, workers := range []int{0, 1, 4} {
		dst := newVM(t, "vm0", 300, int64(100+workers))
		sm, _ := migrate(t, src, dst,
			SourceOptions{Recycle: true, Workers: workers},
			DestOptions{Store: store, VerifyPayloads: true})
		if !src.MemEqual(dst) {
			t.Fatalf("workers=%d: memory differs at page %d", workers, src.FirstDifference(dst))
		}
		results = append(results, sm)
	}
	base := results[0]
	for i, sm := range results[1:] {
		if sm.PagesFull != base.PagesFull || sm.PagesSum != base.PagesSum {
			t.Errorf("variant %d: full/sum = %d/%d, derived width = %d/%d",
				i+1, sm.PagesFull, sm.PagesSum, base.PagesFull, base.PagesSum)
		}
		if sm.BytesSent != base.BytesSent {
			t.Errorf("variant %d: BytesSent = %d, derived width = %d", i+1, sm.BytesSent, base.BytesSent)
		}
	}
}

// TestParallelChecksumWithCompression exercises the worker path combined
// with deflate and an active guest.
func TestParallelChecksumWithCompression(t *testing.T) {
	src := newVM(t, "vm0", 300, 1)
	if err := src.FillCompressible(0.8); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 300, 2)
	sm, _ := migrate(t, src, dst,
		SourceOptions{Workers: 4, Compress: true},
		DestOptions{VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if sm.PagesCompressed == 0 {
		t.Error("compression inactive under parallel checksumming")
	}
}
