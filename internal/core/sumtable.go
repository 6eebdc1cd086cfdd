package core

import (
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// SumTable accumulates the per-page digest of a migrating VM as a byproduct
// of moving it: every frame the engine installs (or encodes, on the source)
// already carries or computes the page's sum, so recording it here lets the
// round-end TrackIncoming pass and the post-migration checkpoint Save reuse
// those digests instead of re-scanning the whole image.
//
// On the destination the table is also the merge's record of what each
// frame holds. The checkpoint bootstrap seeds it with the sums of the pages
// it installed, every install overwrites the frame's entry, and the
// in-place checks of page-sum and range-sum frames compare against it,
// digesting only frames with no entry.
//
// Concurrency: within a round, install workers touch disjoint pages, so the
// per-page slots need no locking; `have` is a []bool rather than a bitmask
// precisely so two workers never share a byte. Round barriers (the pipeline's
// inflight.Wait, the source's per-round loop) provide the cross-round
// happens-before; within a round a worker reads only the slots of the pages
// it is installing.
//
// The zero table (or a nil pointer) is inert: every method is nil-safe and
// the engine sizes it per attempt via reset, so a host can allocate one with
// NewSumTable, hand it to successive retry attempts, and read it only after
// a success.
type SumTable struct {
	alg  checksum.Algorithm
	sums []checksum.Sum
	have []bool
	// complete is set by the engine once the attempt succeeded with every
	// page covered; reset clears it, so a failed attempt's table never
	// reports itself complete, however many pages it had recorded.
	complete bool
}

// NewSumTable returns an empty table for the engine to fill. Pass it as
// DestOptions' result (see DestResult.PageSums) consumer or as
// SourceOptions.SentSums; the engine sizes and resets it per attempt.
func NewSumTable() *SumTable {
	return &SumTable{}
}

// reset prepares the table for one migration attempt over a VM of `pages`
// pages digested under alg, discarding anything an earlier attempt recorded
// (a failed attempt's partial entries must never leak into the next).
func (t *SumTable) reset(alg checksum.Algorithm, pages int) {
	if t == nil {
		return
	}
	t.alg = alg
	t.complete = false
	if cap(t.sums) < pages {
		t.sums = make([]checksum.Sum, pages)
		t.have = make([]bool, pages)
		return
	}
	t.sums = t.sums[:pages]
	t.have = t.have[:pages]
	for i := range t.have {
		t.have[i] = false
		t.sums[i] = checksum.Sum{}
	}
}

// record notes that page now holds content with the given digest. Callers
// record only digests that are true of the installed (or just-sent) bytes:
// verified installs, wire header sums, and range-probe matches.
func (t *SumTable) record(page int, sum checksum.Sum) {
	if t == nil {
		return
	}
	t.sums[page] = sum
	t.have[page] = true
}

// seed records the page-ordered digests of content installed before any
// frame arrived — the destination's checkpoint bootstrap. A slice that does
// not cover the table's pages exactly seeds nothing.
func (t *SumTable) seed(sums []checksum.Sum) {
	if t == nil || len(sums) != len(t.sums) {
		return
	}
	copy(t.sums, sums)
	for i := range t.have {
		t.have[i] = true
	}
}

// holds reports whether page's resident content digests to sum — the
// destination's in-place check for a page-sum frame. A recorded entry
// answers without hashing (counted as avoided); only a page the table has
// no entry for is digested (counted as the probe stage's hashing).
func (t *SumTable) holds(v *vm.VM, page int, sum checksum.Sum, alg checksum.Algorithm, m *Metrics) bool {
	if t != nil && t.have[page] {
		m.HashAvoidedBytes += vm.PageSize
		return t.sums[page] == sum
	}
	m.ProbeHashBytes += vm.PageSize
	return v.PageSum(page, alg) == sum
}

// residentSums returns the digests of count resident pages from start,
// appended to out[:0]: recorded entries where the table has them, and one
// locked digest pass (vm.RangeSums) per run of unrecorded pages otherwise —
// the range-sum counterpart of holds, with the same accounting.
func (t *SumTable) residentSums(v *vm.VM, start, count int, alg checksum.Algorithm, out []checksum.Sum, m *Metrics) []checksum.Sum {
	out = out[:0]
	end := start + count
	for i := start; i < end; {
		if t != nil && t.have[i] {
			out = append(out, t.sums[i])
			m.HashAvoidedBytes += vm.PageSize
			i++
			continue
		}
		j := i + 1
		for j < end && (t == nil || !t.have[j]) {
			j++
		}
		out = v.RangeSums(i, j-i, alg, out)
		m.ProbeHashBytes += int64(j-i) * vm.PageSize
		i = j
	}
	return out
}

// recordRange notes the digests of count pages starting at start —
// the range-frame install path, where the frame header carries every sum.
func (t *SumTable) recordRange(start int, sums []checksum.Sum) {
	if t == nil {
		return
	}
	copy(t.sums[start:start+len(sums)], sums)
	for i := range sums {
		t.have[start+i] = true
	}
}

// Alg reports the algorithm the recorded digests use (the migration's
// negotiated hash). Zero until the engine has reset the table.
func (t *SumTable) Alg() checksum.Algorithm {
	if t == nil {
		return 0
	}
	return t.alg
}

// Sums returns the page-ordered digest slice and true when the last attempt
// succeeded, which leaves every page covered; (nil, false) otherwise —
// including on a nil table or after a failed attempt. The slice is the
// table's own storage: treat it as read-only and gone at the next reset.
func (t *SumTable) Sums() ([]checksum.Sum, bool) {
	if t == nil || !t.complete {
		return nil, false
	}
	return t.sums, true
}

// markComplete declares the table to cover every page of a successful
// attempt. Callers guarantee the coverage: the source's round one records
// every page, and the destination's finishTrack back-fills what no frame
// covered.
func (t *SumTable) markComplete() {
	if t != nil {
		t.complete = true
	}
}

// finishTrack folds the table into set — the destination's round-end
// TrackIncoming pass. Pages with a recorded digest are added as-is; pages
// nothing covered are hashed now and back-filled, so the table is complete
// afterwards. On the normal path nothing is hashed: round one walks the full
// address space, so every page's digest arrived on some frame. Returns the
// payload bytes hashed here and the bytes whose digest was recycled.
func (t *SumTable) finishTrack(v *vm.VM, set *checksum.Set) (hashed, avoided int64) {
	for i := range t.sums {
		if !t.have[i] {
			t.sums[i] = v.PageSum(i, t.alg)
			t.have[i] = true
			hashed += vm.PageSize
		} else {
			avoided += vm.PageSize
		}
		set.Add(t.sums[i])
	}
	t.markComplete()
	return hashed, avoided
}
