package dirtytrack

import "fmt"

// GenVector is a snapshot of per-page generation counters, as stored by
// Miyakodori alongside each checkpoint (§4.3): "each page has a generation
// counter that is incremented if the page is written to after a migration".
// Counters are 64-bit: a generation that matches a snapshot vouches that the
// page still holds the snapshot's content, so a counter must never wrap
// back onto an old value.
type GenVector []uint64

// Tracker maintains live generation counters for a VM's pages.
// The zero value is unusable; construct with NewTracker.
type Tracker struct {
	gens GenVector
}

// NewTracker creates a tracker for n pages, all at generation zero.
func NewTracker(n int) (*Tracker, error) {
	if n < 0 {
		return nil, fmt.Errorf("dirtytrack: negative page count %d", n)
	}
	return &Tracker{gens: make(GenVector, n)}, nil
}

// Len reports the number of tracked pages.
func (t *Tracker) Len() int { return len(t.gens) }

// Touch records a write to page i, advancing its generation. It panics if i
// is out of range.
func (t *Tracker) Touch(i int) { t.gens[i]++ }

// Generation reports page i's current generation.
func (t *Tracker) Generation(i int) uint64 { return t.gens[i] }

// Snapshot copies the current generation vector — taken when a checkpoint
// is written on an outgoing migration.
func (t *Tracker) Snapshot() GenVector {
	out := make(GenVector, len(t.gens))
	copy(out, t.gens)
	return out
}

// UnchangedSince reports which pages have not been written since the
// snapshot was taken: exactly the pages Miyakodori reuses from the local
// checkpoint on an incoming migration. Pages outside the snapshot's range
// (a resized VM) count as changed.
func (t *Tracker) UnchangedSince(snap GenVector) *Bitmap {
	bm, err := NewBitmap(len(t.gens))
	if err != nil {
		// Unreachable: len() is never negative.
		panic(err)
	}
	n := len(snap)
	if len(t.gens) < n {
		n = len(t.gens)
	}
	for i := 0; i < n; i++ {
		if t.gens[i] == snap[i] {
			bm.Set(i)
		}
	}
	return bm
}

// UnchangedPages is UnchangedSince for a list of pages: out[k] reports
// whether page pages[k] has not been written since the snapshot. out must
// be at least len(pages) long; pages outside the snapshot count as changed.
func (t *Tracker) UnchangedPages(pages []int, snap GenVector, out []bool) {
	for k, p := range pages {
		out[k] = p < len(snap) && t.gens[p] == snap[p]
	}
}

// DirtyCountSince reports how many pages changed since the snapshot —
// the transfer set size under pure dirty tracking.
func (t *Tracker) DirtyCountSince(snap GenVector) int {
	return t.Len() - t.UnchangedSince(snap).Count()
}
