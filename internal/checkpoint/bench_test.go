package checkpoint

import (
	"path/filepath"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// BenchmarkOpen measures the §3.3 index build on a 64 MiB checkpoint, cold
// (a Restore under MD5: full pool read + rehash, the paper's own cost)
// versus warm (a Restore under the default ObjectAlgorithm: the index is
// the page manifest's key list, so no page is read or hashed).
func BenchmarkOpen(b *testing.B) {
	const pages = 16384 // 64 MiB at 4 KiB pages
	store, err := NewStore(filepath.Join(b.TempDir(), "ckpts"))
	if err != nil {
		b.Fatal(err)
	}
	src, err := vm.New(vm.Config{Name: "bench", MemBytes: pages * vm.PageSize, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := src.FillRandom(0.5); err != nil {
		b.Fatal(err)
	}
	if err := store.Save(src); err != nil {
		b.Fatal(err)
	}

	for _, arm := range []struct {
		name string
		alg  checksum.Algorithm
	}{{"cold", checksum.MD5}, {"warm", ObjectAlgorithm}} {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(pages * vm.PageSize)
			for i := 0; i < b.N; i++ {
				cp, err := store.Restore("bench", arm.alg, nil)
				if err != nil {
					b.Fatal(err)
				}
				cp.Close()
			}
		})
	}
}

// BenchmarkSaveWarm measures re-checkpointing a VM whose content is already
// fully resident in the pool — the steady state after every successful
// migration, where the save writes no segment and the digest passes are
// the whole cost. `rehash` is the plain Save path (the ObjectAlgorithm
// content-keying scan); `withsums` hands Save the ObjectAlgorithm table a
// tracked migration under the default algorithm records for free, so
// nothing is hashed. The hash-once acceptance bar is withsums ≥ 1.5×
// rehash; tools/benchgate enforces it on the committed recording.
func BenchmarkSaveWarm(b *testing.B) {
	const pages = 16384 // 64 MiB at 4 KiB pages
	store, err := NewStore(filepath.Join(b.TempDir(), "ckpts"))
	if err != nil {
		b.Fatal(err)
	}
	src, err := vm.New(vm.Config{Name: "bench", MemBytes: pages * vm.PageSize, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := src.FillRandom(0.5); err != nil {
		b.Fatal(err)
	}
	if err := store.Save(src); err != nil {
		b.Fatal(err)
	}
	// The table a migration's TrackIncoming/SentSums recording supplies.
	sums := make([]checksum.Sum, pages)
	for i := range sums {
		sums[i] = src.PageSum(i, ObjectAlgorithm)
	}

	b.Run("rehash", func(b *testing.B) {
		b.SetBytes(pages * vm.PageSize)
		for i := 0; i < b.N; i++ {
			if err := store.Save(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("withsums", func(b *testing.B) {
		b.SetBytes(pages * vm.PageSize)
		for i := 0; i < b.N; i++ {
			if err := store.SaveWithSums(src, ObjectAlgorithm, sums); err != nil {
				b.Fatal(err)
			}
		}
	})
}
