package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

func newVM(t *testing.T, name string, pages int, seed int64) *vm.VM {
	t.Helper()
	v, err := vm.New(vm.Config{Name: name, MemBytes: int64(pages) * vm.PageSize, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func fillPattern(v *vm.VM) {
	buf := make([]byte, vm.PageSize)
	for i := 0; i < v.NumPages(); i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		v.WritePage(i, buf)
	}
}

// savedStore saves src into a fresh store and returns the store.
func savedStore(t *testing.T, src *vm.VM) *Store {
	t.Helper()
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	return store
}

func TestWriteAndOpenRestoresMemory(t *testing.T) {
	src := newVM(t, "vm0", 16, 1)
	fillPattern(src)
	store := savedStore(t, src)
	for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
		dst := newVM(t, "vm0", 16, 2)
		cp, err := store.Restore("vm0", alg, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !src.MemEqual(dst) {
			t.Errorf("%v: restored memory differs at page %d", alg, src.FirstDifference(dst))
		}
		if cp.Pages() != 16 {
			t.Errorf("%v: Pages = %d", alg, cp.Pages())
		}
		if cp.Algorithm() != alg {
			t.Errorf("Algorithm = %v, want %v", cp.Algorithm(), alg)
		}
		cp.Close()
	}
}

func TestOpenWithoutVM(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	fillPattern(src)
	cp, err := savedStore(t, src).Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if cp.SumSet().Len() == 0 {
		t.Error("no checksums indexed")
	}
}

func TestOpenSizeMismatch(t *testing.T) {
	store := savedStore(t, newVM(t, "vm0", 8, 1))
	wrong := newVM(t, "vm0", 16, 1)
	for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
		if _, err := store.Restore("vm0", alg, wrong); err == nil {
			t.Errorf("%v: size mismatch accepted", alg)
		}
	}
}

// TestOpenTruncatedImage: a segment cut short behind the store's back
// fails every restore that must read it — the MD5 rescan, and any install —
// instead of serving short pages.
func TestOpenTruncatedImage(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	fillPattern(src)
	store := savedStore(t, src)
	for _, seg := range store.Segments() {
		if err := os.Truncate(filepath.Join(store.Dir(), seg.Name), segmentHeaderSize+8*checksum.Size+vm.PageSize+1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Restore("vm0", checksum.MD5, nil); err == nil {
		t.Error("truncated segment rescanned without error")
	}
	if _, err := store.Restore("vm0", ObjectAlgorithm, newVM(t, "vm0", 8, 2)); err == nil {
		t.Error("truncated segment installed without error")
	}
}

func TestOpenMissingFile(t *testing.T) {
	store := savedStore(t, newVM(t, "vm0", 8, 1))
	if _, err := store.Restore("none", checksum.MD5, nil); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing entry: err = %v, want not-exist", err)
	}
}

func TestOpenInvalidAlgorithm(t *testing.T) {
	store := savedStore(t, newVM(t, "vm0", 8, 1))
	if _, err := store.Restore("vm0", checksum.Algorithm(0), nil); err == nil {
		t.Error("invalid algorithm accepted")
	}
}

func TestSumSetAnnouncesEveryBlock(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	fillPattern(src)
	store := savedStore(t, src)
	for _, alg := range []checksum.Algorithm{ObjectAlgorithm, checksum.MD5} {
		cp, err := store.Restore("vm0", alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < src.NumPages(); i++ {
			if !cp.SumSet().Contains(src.PageSum(i, alg)) {
				t.Errorf("%v: page %d checksum missing from announcement", alg, i)
			}
		}
		cp.Close()
	}
}

func TestReadBlockByChecksum(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	fillPattern(src)
	cp, err := savedStore(t, src).Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()

	want := make([]byte, vm.PageSize)
	src.ReadPage(5, want)
	data, ok, err := cp.ReadBlock(src.PageSum(5, checksum.MD5))
	if err != nil || !ok {
		t.Fatalf("ReadBlock: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(data, want) {
		t.Error("ReadBlock returned wrong content")
	}
	// Unknown checksum.
	if _, ok, err := cp.ReadBlock(checksum.MD5.Page([]byte("nope"))); ok || err != nil {
		t.Errorf("unknown checksum: ok=%v err=%v", ok, err)
	}
}

func TestIndexDuplicateBlocks(t *testing.T) {
	// Two pages with identical content: lookup must return a valid offset.
	src := newVM(t, "vm0", 4, 1)
	same := bytes.Repeat([]byte{0x42}, vm.PageSize)
	src.WritePage(1, same)
	src.WritePage(3, same)
	cp, err := savedStore(t, src).Restore("vm0", checksum.MD5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	data, ok, err := cp.ReadBlock(checksum.MD5.Page(same))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(data, same) {
		t.Error("duplicate block content wrong")
	}
}

// Property: the index finds every inserted sum and nothing else.
func TestIndexLookupProperty(t *testing.T) {
	f := func(blocks []uint8, probe uint8) bool {
		var ix Index
		want := map[checksum.Sum]bool{}
		for i, b := range blocks {
			sum := checksum.MD5.Page([]byte{b})
			ix.add(sum, pageRef{off: int64(i) * vm.PageSize})
			want[sum] = true
		}
		ix.sort()
		for sum := range want {
			if _, ok := ix.Lookup(sum); !ok {
				return false
			}
		}
		probeSum := checksum.MD5.Page([]byte{probe, 0xFF})
		_, ok := ix.Lookup(probeSum)
		return ok == want[probeSum]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreSaveRestore(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	src := newVM(t, "web-1", 8, 1)
	fillPattern(src)
	if store.Has("web-1") {
		t.Error("Has before Save")
	}
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	if !store.Has("web-1") {
		t.Error("Has after Save")
	}
	dst := newVM(t, "web-1", 8, 9)
	cp, err := store.Restore("web-1", checksum.MD5, dst)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if !src.MemEqual(dst) {
		t.Error("store round trip lost data")
	}
}

func TestStoreGenerations(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	src := newVM(t, "vm0", 4, 1)
	src.WritePage(2, bytes.Repeat([]byte{1}, vm.PageSize))
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	gens, ok, err := store.Generations("vm0")
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if len(gens) != 4 || gens[2] != 1 || gens[0] != 0 {
		t.Errorf("generations = %v", gens)
	}
	if _, ok, err := store.Generations("other"); ok || err != nil {
		t.Errorf("missing sidecar: ok=%v err=%v", ok, err)
	}
}

// TestStoreGenerationsWidened: generation vectors widened from 32 to 64
// bits. A .gens.json written by the 32-bit tracker (its largest value
// included) still loads, and counters past 2^32 round-trip.
func TestStoreGenerationsWidened(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.genPath("old"), []byte("[0,7,4294967295]"), 0o644); err != nil {
		t.Fatal(err)
	}
	gens, ok, err := store.Generations("old")
	if err != nil || !ok {
		t.Fatalf("old-format file: ok=%v err=%v", ok, err)
	}
	if len(gens) != 3 || gens[1] != 7 || gens[2] != 1<<32-1 {
		t.Errorf("old-format generations = %v", gens)
	}
	if err := os.WriteFile(store.genPath("wide"), []byte("[4294967296,18446744073709551615]"), 0o644); err != nil {
		t.Fatal(err)
	}
	gens, ok, err = store.Generations("wide")
	if err != nil || !ok {
		t.Fatalf("64-bit file: ok=%v err=%v", ok, err)
	}
	if len(gens) != 2 || gens[0] != 1<<32 || gens[1] != 1<<64-1 {
		t.Errorf("64-bit generations = %v", gens)
	}
}

func TestStoreRemoveAndList(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	a := newVM(t, "a", 2, 1)
	b := newVM(t, "b", 2, 2)
	if err := store.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(b); err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Errorf("List = %v", names)
	}
	if err := store.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if store.Has("a") || !store.Has("b") {
		t.Error("Remove removed wrong checkpoint")
	}
	if err := store.Remove("a"); err != nil {
		t.Errorf("double remove errored: %v", err)
	}
}

func TestStoreSanitizesNames(t *testing.T) {
	store, err := NewStore(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatal(err)
	}
	evil := newVM(t, "../../etc/passwd", 2, 1)
	if err := store.Save(evil); err != nil {
		t.Fatal(err)
	}
	path := store.pmfPath("../../etc/passwd")
	rel, err := filepath.Rel(store.Dir(), path)
	if err != nil || len(rel) == 0 || rel[0] == '.' {
		t.Errorf("page-manifest path %q escapes store dir", path)
	}
}

func TestNewStoreEmptyDir(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Error("empty dir accepted")
	}
}
