package checkpoint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// saveOne creates a store with one saved checkpoint and returns both.
func saveOne(t *testing.T, name string, pages int) (*Store, *vm.VM) {
	t.Helper()
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	src := newVM(t, name, pages, 1)
	fillPattern(src)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	return store, src
}

func TestSaveWritesSidecar(t *testing.T) {
	store, _ := saveOne(t, "vm0", 16)
	st, err := os.Stat(store.sidecarPath("vm0"))
	if err != nil {
		t.Fatalf("Save left no sidecar: %v", err)
	}
	if want := int64(sidecarHeaderSize + 16*checksum.Size); st.Size() != want {
		t.Errorf("sidecar is %d bytes, want %d", st.Size(), want)
	}
}

func TestRestoreWarmHitMatchesCold(t *testing.T) {
	store, src := saveOne(t, "vm0", 32)

	dst := newVM(t, "vm0", 32, 9)
	warm, err := store.Restore("vm0", checksum.MD5, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if warm.Sidecar() != SidecarHit {
		t.Errorf("Sidecar() = %v, want hit", warm.Sidecar())
	}
	if !src.MemEqual(dst) {
		t.Errorf("warm restore lost memory at page %d", src.FirstDifference(dst))
	}

	// Cold path: the same entry with the sidecar bypassed rescans every
	// page out of the pool.
	store.SetNoSidecar(true)
	cold, err := store.Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if cold.Sidecar() != SidecarDisabled {
		t.Errorf("cold Sidecar() = %v, want disabled", cold.Sidecar())
	}
	// Same announcement set and same resolvable blocks either way.
	if warm.SumSet().Len() != cold.SumSet().Len() ||
		warm.SumSet().IntersectCount(cold.SumSet()) != cold.SumSet().Len() {
		t.Error("warm and cold announcement sets differ")
	}
	for i := 0; i < src.NumPages(); i++ {
		sum := src.PageSum(i, checksum.MD5)
		wd, ok, err := warm.ReadBlock(sum)
		if err != nil || !ok {
			t.Fatalf("warm ReadBlock(page %d): ok=%v err=%v", i, ok, err)
		}
		warm.Release(wd)
	}
}

func TestOpenMissRewritesSidecar(t *testing.T) {
	dir := t.TempDir()
	src := newVM(t, "vm0", 16, 1)
	fillPattern(src)
	path := filepath.Join(dir, "vm0.img")
	// A bare Write (the flat-image path) leaves no sidecar.
	if err := Write(path, src); err != nil {
		t.Fatal(err)
	}
	cp, err := Open(path, checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Sidecar() != SidecarMiss {
		t.Errorf("first Open Sidecar() = %v, want miss", cp.Sidecar())
	}
	cp.Close()
	if _, err := os.Stat(SidecarPath(path)); err != nil {
		t.Fatalf("miss did not rewrite the sidecar: %v", err)
	}
	cp2, err := Open(path, checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if cp2.Sidecar() != SidecarHit {
		t.Errorf("second Open Sidecar() = %v, want hit", cp2.Sidecar())
	}
}

func TestOpenNoSidecarLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	src := newVM(t, "vm0", 8, 1)
	fillPattern(src)
	path := filepath.Join(dir, "vm0.img")
	if err := Write(path, src); err != nil {
		t.Fatal(err)
	}
	cp, err := OpenWith(path, checksum.MD5, nil, OpenConfig{NoSidecar: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.Sidecar() != SidecarDisabled {
		t.Errorf("Sidecar() = %v, want disabled", cp.Sidecar())
	}
	if _, err := os.Stat(SidecarPath(path)); !os.IsNotExist(err) {
		t.Errorf("NoSidecar open wrote a sidecar (stat err=%v)", err)
	}
}

func TestStoreSetNoSidecar(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	store.SetNoSidecar(true)
	src := newVM(t, "vm0", 8, 1)
	fillPattern(src)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.sidecarPath("vm0")); !os.IsNotExist(err) {
		t.Errorf("SetNoSidecar Save wrote a sidecar (stat err=%v)", err)
	}
	cp, err := store.Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.Sidecar() != SidecarDisabled {
		t.Errorf("Sidecar() = %v, want disabled", cp.Sidecar())
	}
}

// TestSidecarCorruptionFallsBack covers the corruption matrix: every broken
// sidecar must fall back to the rescan without surfacing an error, restore
// the right memory, and leave behind a rewritten sidecar that the next
// Restore hits.
func TestSidecarCorruptionFallsBack(t *testing.T) {
	cases := map[string]struct {
		corrupt func(t *testing.T, store *Store)
		alg     checksum.Algorithm
	}{
		"truncated file": {
			corrupt: func(t *testing.T, store *Store) {
				if err := os.Truncate(store.sidecarPath("vm0"), sidecarHeaderSize+5); err != nil {
					t.Fatal(err)
				}
			},
			alg: checksum.MD5,
		},
		"wrong algorithm": {
			// The sidecar records MD5 sums; this restore asks for SHA256.
			corrupt: func(t *testing.T, _ *Store) {},
			alg:     checksum.SHA256,
		},
		"stale anchor digest": {
			corrupt: func(t *testing.T, store *Store) {
				// Flip a byte inside the sidecar's recorded anchor digest so
				// it no longer matches the entry's page-manifest digest.
				f, err := os.OpenFile(store.sidecarPath("vm0"), os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var b [1]byte
				if _, err := f.ReadAt(b[:], 30); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0xff
				if _, err := f.WriteAt(b[:], 30); err != nil {
					t.Fatal(err)
				}
			},
			alg: checksum.MD5,
		},
		"bad magic": {
			corrupt: func(t *testing.T, store *Store) {
				f, err := os.OpenFile(store.sidecarPath("vm0"), os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt([]byte("XXXX"), 0); err != nil {
					t.Fatal(err)
				}
			},
			alg: checksum.MD5,
		},
		"future version": {
			corrupt: func(t *testing.T, store *Store) {
				f, err := os.OpenFile(store.sidecarPath("vm0"), os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteAt([]byte{0xff, 0x7f}, 4); err != nil {
					t.Fatal(err)
				}
			},
			alg: checksum.MD5,
		},
		"garbage sums trailing": {
			corrupt: func(t *testing.T, store *Store) {
				f, err := os.OpenFile(store.sidecarPath("vm0"), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write(make([]byte, 7)); err != nil {
					t.Fatal(err)
				}
			},
			alg: checksum.MD5,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			store, _ := saveOne(t, "vm0", 16)
			tc.corrupt(t, store)

			dst := newVM(t, "vm0", 16, 9)
			cp, err := store.Restore("vm0", tc.alg, dst)
			if err != nil {
				t.Fatalf("corrupt sidecar broke Restore: %v", err)
			}
			if cp.Sidecar() != SidecarFallback {
				t.Errorf("Sidecar() = %v, want fallback", cp.Sidecar())
			}
			// The fallback must produce a correct index over the stored
			// content: every installed page resolves by checksum, and the
			// installed sums handed to the merge are the rescan's.
			installed := cp.InstalledSums()
			if len(installed) != dst.NumPages() {
				t.Fatalf("InstalledSums has %d entries, want %d", len(installed), dst.NumPages())
			}
			for i := 0; i < dst.NumPages(); i++ {
				if !cp.SumSet().Contains(dst.PageSum(i, tc.alg)) {
					t.Fatalf("page %d missing from fallback index", i)
				}
				if installed[i] != dst.PageSum(i, tc.alg) {
					t.Fatalf("page %d: installed sum is not the installed page's digest", i)
				}
			}
			cp.Close()

			// The fallback rewrote the sidecar: same algorithm hits now.
			cp2, err := store.Restore("vm0", tc.alg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cp2.Close()
			if cp2.Sidecar() != SidecarHit {
				t.Errorf("post-fallback Sidecar() = %v, want hit", cp2.Sidecar())
			}
		})
	}
}

// TestWarmOpenSkipsImageHashing proves the warm path does not rehash: with
// a validated sidecar and no VM to install into, Restore never reads page
// content, so doctoring a stored payload behind the sidecar's back goes
// unnoticed (integrity remains Verify's job — see VerifyOnRestore).
func TestWarmOpenSkipsImageHashing(t *testing.T) {
	store, src := saveOne(t, "vm0", 16)
	tamperObject(t, store, "vm0", 0)
	cp, err := store.Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.Sidecar() != SidecarHit {
		t.Fatalf("Sidecar() = %v, want hit", cp.Sidecar())
	}
	// The announcement still reflects the original content: nothing was
	// rehashed.
	if !cp.SumSet().Contains(src.PageSum(0, checksum.MD5)) {
		t.Error("warm open rehashed the stored pages")
	}
}

// TestConcurrentRemoveDuringRestore races Store.Remove against
// Store.Restore. Either outcome is legal — a clean restore (possibly via
// sidecar-miss fallback) or a not-found error — but never a wrong index, a
// panic, or a data race.
func TestConcurrentRemoveDuringRestore(t *testing.T) {
	for round := 0; round < 8; round++ {
		store, _ := saveOne(t, "vm0", 32)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = store.Remove("vm0")
		}()
		go func() {
			defer wg.Done()
			cp, err := store.Restore("vm0", checksum.MD5, nil)
			if err != nil {
				// The removed side of the race: acceptable.
				return
			}
			defer cp.Close()
			if cp.Pages() != 32 {
				t.Errorf("raced restore produced %d pages, want 32", cp.Pages())
			}
			if cp.SumSet().Len() == 0 {
				t.Error("raced restore produced an empty index")
			}
		}()
		wg.Wait()
	}
}

// TestInstalledSums pins what a bootstrap may seed the merge with: the
// digest of every page Restore installed — from a sidecar hit, or from the
// rescan when the sidecar belongs to an older save of the entry — and
// nothing when nothing was installed.
func TestInstalledSums(t *testing.T) {
	store, src := saveOne(t, "vm0", 16)
	check := func(name string, want SidecarStatus) {
		t.Helper()
		dst := newVM(t, "vm0", 16, 9)
		cp, err := store.Restore("vm0", checksum.MD5, dst)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		if cp.Sidecar() != want {
			t.Fatalf("%s: Sidecar() = %v, want %v", name, cp.Sidecar(), want)
		}
		installed := cp.InstalledSums()
		if len(installed) != dst.NumPages() {
			t.Fatalf("%s: %d installed sums for %d pages", name, len(installed), dst.NumPages())
		}
		for i := range installed {
			if installed[i] != dst.PageSum(i, checksum.MD5) {
				t.Fatalf("%s: page %d's installed sum does not digest the installed page", name, i)
			}
		}
	}
	check("warm", SidecarHit)

	// A sidecar left over from an older save: rewrite the guest, save
	// again, and put the old sidecar back.
	old, err := os.ReadFile(store.sidecarPath("vm0"))
	if err != nil {
		t.Fatal(err)
	}
	src.TouchRandomPages(5)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.sidecarPath("vm0"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	check("stale sidecar", SidecarFallback)

	cp, err := store.Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.InstalledSums() != nil {
		t.Error("Restore without a VM reports installed sums")
	}
	union, _, err := store.OpenUnion(checksum.MD5)
	if err != nil {
		t.Fatal(err)
	}
	defer union.Close()
	if union.InstalledSums() != nil {
		t.Error("union reports installed sums")
	}
}
