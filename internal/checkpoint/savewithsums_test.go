package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// vmSums digests every page of v under alg — the table a migration's
// hash-once lifecycle would have recorded for free.
func vmSums(t *testing.T, v *vm.VM, alg checksum.Algorithm) []checksum.Sum {
	t.Helper()
	sums := make([]checksum.Sum, v.NumPages())
	for i := range sums {
		sums[i] = v.PageSum(i, alg)
	}
	return sums
}

// metricsStore builds a store in its own directory with a fakeMetrics sink
// attached, returning both plus the directory.
func metricsStore(t *testing.T) (*Store, *fakeMetrics, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "s")
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &fakeMetrics{store: s}
	s.SetMetrics(m)
	return s, m, dir
}

// TestSaveWithSumsMatchesSave is the ingest-equivalence contract: a save
// fed a migration-recorded ObjectAlgorithm table must produce a
// byte-identical page manifest and an identically restorable entry, while
// skipping the content-keying scan: only the pages new to the pool — here
// all of them — are hashed, to check the table before they are filed.
func TestSaveWithSumsMatchesSave(t *testing.T) {
	const pages = 64
	v := filledVM(t, "a", pages, 1)

	sPlain, mPlain, dirPlain := metricsStore(t)
	if err := sPlain.Save(v); err != nil {
		t.Fatal(err)
	}
	sPre, mPre, dirPre := metricsStore(t)
	if err := sPre.SaveWithSums(v, ObjectAlgorithm, vmSums(t, v, ObjectAlgorithm)); err != nil {
		t.Fatal(err)
	}

	// Same content, same layout: the page manifests must be byte-identical.
	plain, err := os.ReadFile(filepath.Join(dirPlain, "a"+pmfSuffix))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := os.ReadFile(filepath.Join(dirPre, "a"+pmfSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, pre) {
		t.Error("precomputed-sum save wrote a different page manifest than a rehashing save")
	}

	// Both entries restore bit exactly.
	for name, s := range map[string]*Store{"plain": sPlain, "withsums": sPre} {
		dst := newVM(t, "a", pages, 99)
		cp, err := s.Restore("a", ObjectAlgorithm, dst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cp.Close()
		if !v.MemEqual(dst) {
			t.Errorf("%s: restore lost data at page %d", name, v.FirstDifference(dst))
		}
	}

	// Accounting: the plain save digested the image once (the keying
	// scan); the precomputed save checked the new pages and ran no scan.
	mem := v.MemBytes()
	mPlain.mu.Lock()
	if mPlain.hashed["save_keys"] != mem || mPlain.unhashed != 0 {
		t.Errorf("plain save accounting = %v avoided=%d, want the keying scan hashed", mPlain.hashed, mPlain.unhashed)
	}
	mPlain.mu.Unlock()
	mPre.mu.Lock()
	if mPre.hashed["save_keys"] != 0 || mPre.hashed["save_verify"] != mem || mPre.unhashed != 0 {
		t.Errorf("withsums save accounting = %v avoided=%d, want every new page checked and no keying scan", mPre.hashed, mPre.unhashed)
	}
	mPre.mu.Unlock()
}

// TestSaveWithSumsObjectAlgorithm: a precomputed key table dedups against
// entries keyed by the rehashing path.
func TestSaveWithSumsObjectAlgorithm(t *testing.T) {
	const pages = 8
	v := filledVM(t, "a", pages, 1)
	s, m, _ := metricsStore(t)
	if err := s.Save(v); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	// Re-save the unchanged VM under a precomputed key table: every page
	// must dedup against the first save, with nothing hashed at all.
	if err := s.SaveWithSums(v, ObjectAlgorithm, vmSums(t, v, ObjectAlgorithm)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PhysicalBytes - before.PhysicalBytes; got != 0 {
		t.Errorf("identical re-save grew the pool by %d bytes", got)
	}
	m.mu.Lock()
	if m.hashed["save_keys"] != v.MemBytes() || m.hashed["save_verify"] != 0 || m.unhashed != v.MemBytes() {
		t.Errorf("accounting = %v avoided=%d, want first save's key scan hashed and second's recycled", m.hashed, m.unhashed)
	}
	m.mu.Unlock()
	dst := newVM(t, "a", pages, 99)
	cp, err := s.Restore("a", checksum.MD5, dst)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if !v.MemEqual(dst) {
		t.Error("restore after keyed re-save lost data")
	}
}

// TestSaveWithSumsCopiesTable: the store keeps its own copy of the caller's
// table. A migration's SumTable is reused and zeroed in place at its next
// reset; had the store kept the caller's slice as the entry's key list,
// that would silently rewrite the store's keys and refcounts.
func TestSaveWithSumsCopiesTable(t *testing.T) {
	const pages = 8
	v := filledVM(t, "a", pages, 1)
	s, _, _ := metricsStore(t)
	sums := vmSums(t, v, ObjectAlgorithm)
	if err := s.SaveWithSums(v, ObjectAlgorithm, sums); err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		sums[i] = checksum.Sum{}
	}
	if err := s.Verify("a"); err != nil {
		t.Errorf("Verify after the caller reused its table: %v", err)
	}
	if st := s.Stats(); st.Objects != pages {
		t.Errorf("pool holds %d objects, want %d", st.Objects, pages)
	}
	dst := newVM(t, "a", pages, 99)
	cp, err := s.Restore("a", ObjectAlgorithm, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if !v.MemEqual(dst) {
		t.Errorf("restore lost data at page %d", v.FirstDifference(dst))
	}
	for i := 0; i < pages; i++ {
		if !cp.SumSet().Contains(v.PageSum(i, ObjectAlgorithm)) {
			t.Fatalf("page %d missing from the announcement", i)
		}
	}
}

// TestSaveWithSumsRejectsWrongKey: a table that files a page under the key
// of other content — a frame corrupted in transit whose header sum the
// destination recorded — must not put that content into the pool under
// the wrong key, where dedup would hand it to every VM saving the honest
// content. The save keys the image itself instead.
func TestSaveWithSumsRejectsWrongKey(t *testing.T) {
	const pages = 8
	honest := filledVM(t, "honest", pages, 1)
	arrived := filledVM(t, "arrived", pages, 2)
	sums := vmSums(t, arrived, ObjectAlgorithm)
	sums[3] = honest.PageSum(3, ObjectAlgorithm) // page 3 claims honest's content

	s, m, _ := metricsStore(t)
	if err := s.SaveWithSums(arrived, ObjectAlgorithm, sums); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify("arrived"); err != nil {
		t.Errorf("Verify after a save with a wrong table: %v", err)
	}
	m.mu.Lock()
	if m.hashed["save_keys"] != arrived.MemBytes() {
		t.Errorf("accounting = %v, want the table dropped for a full keying scan", m.hashed)
	}
	m.mu.Unlock()

	if err := s.Save(honest); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*vm.VM{arrived, honest} {
		dst := newVM(t, v.Name(), pages, 99)
		cp, err := s.Restore(v.Name(), ObjectAlgorithm, dst)
		if err != nil {
			t.Fatal(err)
		}
		cp.Close()
		if !v.MemEqual(dst) {
			t.Errorf("%s restored wrong content at page %d", v.Name(), v.FirstDifference(dst))
		}
	}
	union, _, err := s.OpenUnion()
	if err != nil {
		t.Fatal(err)
	}
	defer union.Close()
	want := make([]byte, vm.PageSize)
	honest.ReadPage(3, want)
	got, ok, err := union.ReadBlock(honest.PageSum(3, ObjectAlgorithm))
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Errorf("union serves the wrong content for honest page 3 (ok=%v err=%v)", ok, err)
	}
}

// TestSaveWithSumsFallback: a table that does not cover the image — wrong
// length, no valid algorithm, or an algorithm other than the store's key
// (MD5 included) — silently degrades to the rehashing path.
func TestSaveWithSumsFallback(t *testing.T) {
	const pages = 8
	v := filledVM(t, "a", pages, 1)
	cases := map[string]struct {
		alg  checksum.Algorithm
		sums []checksum.Sum
	}{
		"nil-table":   {ObjectAlgorithm, nil},
		"short-table": {ObjectAlgorithm, make([]checksum.Sum, pages-1)},
		"zero-alg":    {0, make([]checksum.Sum, pages)},
		"foreign-alg": {checksum.FNV, vmSums(t, v, checksum.FNV)},
		"md5-table":   {checksum.MD5, vmSums(t, v, checksum.MD5)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, m, _ := metricsStore(t)
			if err := s.SaveWithSums(v, tc.alg, tc.sums); err != nil {
				t.Fatal(err)
			}
			mem := v.MemBytes()
			m.mu.Lock()
			if m.hashed["save_keys"] != mem || m.unhashed != 0 {
				t.Errorf("accounting = %v avoided=%d, want full fallback rehash", m.hashed, m.unhashed)
			}
			m.mu.Unlock()
			dst := newVM(t, "a", pages, 99)
			cp, err := s.Restore("a", checksum.MD5, dst)
			if err != nil {
				t.Fatal(err)
			}
			cp.Close()
			if !v.MemEqual(dst) {
				t.Error("fallback save lost data")
			}
		})
	}
}
