package checkpoint

import (
	"encoding/binary"
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

// TestSaveWritesNoFingerprintIndex: the page manifest is the only
// fingerprint index. No save path and no restore — under either algorithm —
// leaves a *.idx file in the store directory.
func TestSaveWritesNoFingerprintIndex(t *testing.T) {
	store, src := saveOne(t, "vm0", 16)
	if err := store.SaveWithSums(src, ObjectAlgorithm, vmSums(t, src, ObjectAlgorithm)); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSalvage(newVM(t, "part", 4, 2)); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
		cp, err := store.Restore("vm0", alg, newVM(t, "vm0", 16, 9))
		if err != nil {
			t.Fatal(err)
		}
		cp.Close()
	}
	idx, err := filepath.Glob(filepath.Join(store.Dir(), "*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 0 {
		t.Errorf("store wrote fingerprint index files: %v", idx)
	}
}

// TestRestoreWarmHitMatchesCold: the warm open (the default algorithm,
// announced from the page manifest) and the cold one (MD5, every page
// reread and rehashed) install the same memory and resolve every page.
func TestRestoreWarmHitMatchesCold(t *testing.T) {
	store, src := saveOne(t, "vm0", 32)
	for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
		dst := newVM(t, "vm0", 32, 9)
		cp, err := store.Restore("vm0", alg, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !src.MemEqual(dst) {
			t.Errorf("%v restore lost memory at page %d", alg, src.FirstDifference(dst))
		}
		if cp.SumSet().Len() != src.NumPages() {
			t.Errorf("%v: announced %d sums for %d distinct pages", alg, cp.SumSet().Len(), src.NumPages())
		}
		for i := 0; i < src.NumPages(); i++ {
			data, ok, err := cp.ReadBlock(src.PageSum(i, alg))
			if err != nil || !ok {
				t.Fatalf("%v ReadBlock(page %d): ok=%v err=%v", alg, i, ok, err)
			}
			cp.Release(data)
		}
		cp.Close()
	}
}

// TestWarmOpenSkipsImageHashing proves the warm path does not rehash: under
// ObjectAlgorithm with no VM to install into, Restore never reads page
// content, so doctoring a stored payload behind the store's back goes
// unnoticed (integrity remains Verify's job — see VerifyOnRestore).
func TestWarmOpenSkipsImageHashing(t *testing.T) {
	store, src := saveOne(t, "vm0", 16)
	tamperObject(t, store, "vm0", 0)
	cp, err := store.Restore("vm0", ObjectAlgorithm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	// The announcement still reflects the original content: nothing was
	// rehashed.
	if !cp.SumSet().Contains(src.PageSum(0, ObjectAlgorithm)) {
		t.Error("warm open rehashed the stored pages")
	}
}

// TestConcurrentRemoveDuringRestore races Store.Remove against
// Store.Restore. Either outcome is legal — a clean restore or a not-found
// error — but never a wrong index, a panic, or a data race.
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
			alg := ObjectAlgorithm
			if round%2 == 1 {
				alg = checksum.MD5
			}
			cp, err := store.Restore("vm0", alg, nil)
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
// digest of every page Restore installed — the page manifest's keys under
// ObjectAlgorithm, the rescan's sums under MD5, also after a re-save and
// when Install follows an index-only Restore — and nothing when nothing was
// installed.
func TestInstalledSums(t *testing.T) {
	store, src := saveOne(t, "vm0", 16)
	check := func(name string, alg checksum.Algorithm) {
		t.Helper()
		dst := newVM(t, "vm0", 16, 9)
		cp, err := store.Restore("vm0", alg, dst)
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
		installed := cp.InstalledSums()
		if len(installed) != dst.NumPages() {
			t.Fatalf("%s: %d installed sums for %d pages", name, len(installed), dst.NumPages())
		}
		for i := range installed {
			if installed[i] != dst.PageSum(i, alg) {
				t.Fatalf("%s: page %d's installed sum does not digest the installed page", name, i)
			}
		}
	}
	check("warm", ObjectAlgorithm)
	check("md5", checksum.MD5)
	src.TouchRandomPages(5)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	check("warm after re-save", ObjectAlgorithm)
	check("md5 after re-save", checksum.MD5)

	cp, err := store.Restore("vm0", ObjectAlgorithm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.InstalledSums() != nil {
		t.Error("Restore without a VM reports installed sums")
	}
	// Installing afterwards is the same bootstrap as Restore with a VM.
	dst := newVM(t, "vm0", 16, 9)
	if err := cp.Install(dst); err != nil {
		t.Fatal(err)
	}
	if !src.MemEqual(dst) {
		t.Errorf("Install lost memory at page %d", src.FirstDifference(dst))
	}
	if len(cp.InstalledSums()) != dst.NumPages() {
		t.Fatalf("Install recorded %d sums for %d pages", len(cp.InstalledSums()), dst.NumPages())
	}
	for i, s := range cp.InstalledSums() {
		if s != dst.PageSum(i, ObjectAlgorithm) {
			t.Fatalf("page %d's installed sum does not digest the installed page", i)
		}
	}
	union, _, err := store.OpenUnion()
	if err != nil {
		t.Fatal(err)
	}
	defer union.Close()
	if union.InstalledSums() != nil {
		t.Error("union reports installed sums")
	}
}

// TestPMFCorruptionQuarantines covers the corruption matrix of the page
// manifest, the only fingerprint index a warm restore trusts: every damaged
// pmf must quarantine its entry at the next recovery scan instead of being
// served, and the store must keep opening.
func TestPMFCorruptionQuarantines(t *testing.T) {
	patch := func(off int64, b []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := map[string]func(t *testing.T, path string){
		"truncated file": func(t *testing.T, path string) {
			if err := os.Truncate(path, pmfHeaderSize+5); err != nil {
				t.Fatal(err)
			}
		},
		// The keys claim another algorithm than the store's identity.
		"wrong algorithm": patch(6, []byte{byte(checksum.MD5)}),
		// A flipped key byte: the pmf parses but no longer matches the
		// digest the store manifest committed to.
		"stale anchor digest": patch(pmfHeaderSize+3, []byte{0xff}),
		"bad magic":           patch(0, []byte("XXXX")),
		"future version":      patch(4, []byte{0xff, 0x7f}),
		// A header-only pmf claiming 2^60 keys: the size check once wrapped
		// around and the key allocation panicked inside NewStore.
		"huge count": func(t *testing.T, path string) {
			if err := os.Truncate(path, pmfHeaderSize); err != nil {
				t.Fatal(err)
			}
			var count [8]byte
			binary.LittleEndian.PutUint64(count[:], 1<<60)
			patch(12, count[:])(t, path)
		},
		"garbage sums trailing": func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(make([]byte, 7)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			store, _ := saveOne(t, "vm0", 16)
			corrupt(t, store.pmfPath("vm0"))
			s2, err := NewStore(store.Dir())
			if err != nil {
				t.Fatalf("corrupt pmf broke NewStore: %v", err)
			}
			if info, _ := s2.Entry("vm0"); info.State != EntryQuarantined {
				t.Errorf("state = %v, want quarantined", info.State)
			}
			for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
				if _, err := s2.Restore("vm0", alg, nil); err == nil {
					t.Errorf("%v: quarantined entry served", alg)
				}
			}
			if union, _, err := s2.OpenUnion(); err != nil || union != nil {
				t.Errorf("union over a quarantined-only store = %v, %v; want none", union, err)
			}
		})
	}
}
