package dirtytrack

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewBitmapValidation(t *testing.T) {
	if _, err := NewBitmap(-1); err == nil {
		t.Error("negative size accepted")
	}
	bm, err := NewBitmap(0)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Len() != 0 || bm.Count() != 0 {
		t.Error("empty bitmap not empty")
	}
}

func TestBitmapSetClearTest(t *testing.T) {
	bm, err := NewBitmap(130) // spans three words
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		if bm.Test(i) {
			t.Errorf("page %d dirty at start", i)
		}
		bm.Set(i)
		if !bm.Test(i) {
			t.Errorf("page %d clean after Set", i)
		}
	}
	if bm.Count() != 6 {
		t.Errorf("Count = %d, want 6", bm.Count())
	}
	bm.Clear(64)
	if bm.Test(64) || bm.Count() != 5 {
		t.Error("Clear failed")
	}
}

func TestBitmapSetIdempotent(t *testing.T) {
	bm, _ := NewBitmap(10)
	bm.Set(3)
	bm.Set(3)
	if bm.Count() != 1 {
		t.Errorf("double Set counted twice: %d", bm.Count())
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	bm, _ := NewBitmap(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access to page %d did not panic", i)
				}
			}()
			bm.Test(i)
		}()
	}
}

func TestBitmapResetSetAll(t *testing.T) {
	bm, _ := NewBitmap(100)
	bm.SetAll()
	if bm.Count() != 100 {
		t.Errorf("SetAll count = %d", bm.Count())
	}
	bm.Reset()
	if bm.Count() != 0 {
		t.Errorf("Reset count = %d", bm.Count())
	}
}

func TestBitmapForEachSet(t *testing.T) {
	bm, _ := NewBitmap(200)
	want := []int{0, 1, 63, 64, 65, 128, 199}
	for _, i := range want {
		bm.Set(i)
	}
	var got []int
	bm.ForEachSet(func(p int) { got = append(got, p) })
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v (order must be ascending)", got, want)
		}
	}
}

func TestBitmapClone(t *testing.T) {
	bm, _ := NewBitmap(10)
	bm.Set(5)
	c := bm.Clone()
	c.Set(6)
	if bm.Test(6) {
		t.Error("Clone shares storage")
	}
	if !c.Test(5) {
		t.Error("Clone lost bits")
	}
}

// Property: Count always equals the number of pages for which Test is true.
func TestBitmapCountConsistent(t *testing.T) {
	f := func(pages []uint8) bool {
		bm, err := NewBitmap(256)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, p := range pages {
			bm.Set(int(p))
			seen[int(p)] = true
		}
		if bm.Count() != len(seen) {
			return false
		}
		n := 0
		bm.ForEachSet(func(int) { n++ })
		return n == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(-1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestTrackerMiyakodoriCycle(t *testing.T) {
	// The Miyakodori flow: checkpoint + generation snapshot on the way out,
	// generation comparison on the way back in.
	tr, err := NewTracker(8)
	if err != nil {
		t.Fatal(err)
	}
	tr.Touch(0)
	tr.Touch(1)
	snap := tr.Snapshot() // outgoing migration: checkpoint written here

	tr.Touch(1) // page 1 written again after migration
	tr.Touch(5) // page 5 written for the first time

	unchanged := tr.UnchangedSince(snap)
	wantUnchanged := map[int]bool{0: true, 2: true, 3: true, 4: true, 6: true, 7: true}
	for i := 0; i < 8; i++ {
		if unchanged.Test(i) != wantUnchanged[i] {
			t.Errorf("page %d unchanged = %v, want %v", i, unchanged.Test(i), wantUnchanged[i])
		}
	}
	if got := tr.DirtyCountSince(snap); got != 2 {
		t.Errorf("DirtyCountSince = %d, want 2", got)
	}
}

func TestTrackerSnapshotIsolated(t *testing.T) {
	tr, _ := NewTracker(4)
	snap := tr.Snapshot()
	tr.Touch(0)
	if snap[0] != 0 {
		t.Error("snapshot mutated by later Touch")
	}
}

func TestTrackerResizedVM(t *testing.T) {
	tr, _ := NewTracker(6)
	shortSnap := GenVector{0, 0, 0} // snapshot from when the VM had 3 pages
	unchanged := tr.UnchangedSince(shortSnap)
	if unchanged.Count() != 3 {
		t.Errorf("unchanged = %d, want 3 (new pages count as changed)", unchanged.Count())
	}
	if got := tr.DirtyCountSince(shortSnap); got != 3 {
		t.Errorf("DirtyCountSince = %d, want 3", got)
	}
}

func TestTrackerUnchangedPages(t *testing.T) {
	tr, _ := NewTracker(6)
	snap := tr.Snapshot()[:5] // page 5 lies outside the snapshot
	tr.Touch(2)
	pages := []int{5, 2, 0, 4}
	out := make([]bool, len(pages))
	tr.UnchangedPages(pages, snap, out)
	if want := []bool{false, false, true, true}; !reflect.DeepEqual(out, want) {
		t.Errorf("UnchangedPages = %v, want %v", out, want)
	}
}

func TestTrackerGeneration(t *testing.T) {
	tr, _ := NewTracker(2)
	if tr.Generation(1) != 0 {
		t.Error("initial generation not zero")
	}
	tr.Touch(1)
	tr.Touch(1)
	if got := tr.Generation(1); got != 2 {
		t.Errorf("Generation = %d, want 2", got)
	}
	if tr.Generation(0) != 0 {
		t.Error("Touch leaked to another page")
	}
}

// Property: DirtyCountSince(snapshot just taken) == 0, and after touching k
// distinct pages it is exactly k.
func TestTrackerDirtyCountProperty(t *testing.T) {
	f := func(pages []uint8) bool {
		tr, err := NewTracker(256)
		if err != nil {
			return false
		}
		snap := tr.Snapshot()
		if tr.DirtyCountSince(snap) != 0 {
			return false
		}
		distinct := map[int]bool{}
		for _, p := range pages {
			tr.Touch(int(p))
			distinct[int(p)] = true
		}
		return tr.DirtyCountSince(snap) == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
