package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vecycle/internal/checksum"
	"vecycle/internal/dirtytrack"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// Store manages the checkpoints a host keeps for the VMs that have visited
// it. The paper's premise (via Birke et al.) is that a VM revisits a small
// set of hosts — often just two — so "storing a checkpoint at each visited
// server" is cheap and pays for itself on the next incoming migration.
//
// The store is content addressed and host wide: every distinct 4 KiB page
// is persisted exactly once per host, in append-only segment files keyed by
// a collision-resistant checksum (object.go), and each checkpoint entry is
// a page manifest referencing those objects (pmf.go). Pages shared between
// VMs — zero pages, kernel text, common libraries — cost their bytes once,
// and a destination can bootstrap a fresh VM from the union of every
// resident entry's content (OpenUnion). Reference counts over the object
// pool drive a GC pass (gc.go) that deletes and compacts dead segments.
//
// Alongside each entry the store keeps a Miyakodori generation-vector
// file, so the dirty-tracking baseline can be driven from the same
// stored state.
//
// The store is crash-consistent: every file reaches its name via
// tmp+fsync+rename, a versioned manifest (committed last, atomically)
// records each entry's page-manifest digest and every live segment, and
// NewStore replays the recorded digests against the disk — quarantining
// entries a crash left torn and rolling back files no committed transaction
// describes. Entries are complete (a full checkpoint), partial (a salvage
// checkpoint persisted by an interrupted incoming migration, served for
// announce-driven resume only), or quarantined (never served).
type Store struct {
	dir             string
	fs              faultfs.FS
	mu              sync.Mutex
	man             manifestFile
	quota           int64
	verifyOnRestore bool

	// In-memory view of the object pool, rebuilt from the manifest and the
	// segment key tables by the recovery scan — never persisted, so it can
	// not desynchronize across a crash. An entry's key list is never
	// mutated in place: Restore hands it out as the announce sums.
	objects map[checksum.Sum]objLoc   // object key → payload location
	refs    map[checksum.Sum]int      // object key → entry references
	keys    map[string][]checksum.Sum // entry → page-ordered object keys
	segKeys map[string][]checksum.Sum // segment file → keys in slot order

	dedupPages int64 // cumulative pages Save skipped writing (already pooled)

	metrics Metrics
	pending []func(Metrics) // metric callbacks deferred until s.mu is free
}

// objLoc locates one object's payload inside a segment file.
type objLoc struct {
	seg string // segment file name within the store directory
	off int64  // payload byte offset
}

// Metrics receives store-side counter events. The scheduler layer installs
// an implementation that forwards to the host's observability registry.
// Callbacks are invoked only after the store's own lock is released, so an
// implementation may take locks of its own — even ones a concurrent metrics
// scrape holds while calling back into Stats or Usage.
type Metrics interface {
	// DedupPages reports n pages a Save deduplicated against the pool
	// instead of writing.
	DedupPages(n int)
	// GCRun reports a completed GC pass; outcome is "reclaimed" when the
	// pass deleted or compacted at least one segment, "clean" otherwise.
	GCRun(outcome string)
	// HashBytes reports n payload bytes a Save digested itself; stage is
	// "save_keys" (the ObjectAlgorithm content-keying scan).
	HashBytes(stage string, n int64)
	// HashAvoidedBytes reports n payload bytes whose digests were supplied
	// precomputed by the caller (SaveWithSums) instead of recomputed.
	HashAvoidedBytes(n int64)
	// CleanupError reports a best-effort cleanup (satellite sweeps) that
	// failed to remove path. The store carries on — the file is garbage,
	// not state — but silent failures used to hide sick disks, so every one
	// is now counted.
	CleanupError(path string)
	// Degraded reports a rung of the graceful-degradation ladder taken
	// inside the store itself — e.g. a union-bootstrap entry skipped
	// because its segment reads fail. stage and fault use the same label
	// vocabulary as the vecycle_degraded_total metric.
	Degraded(stage, fault string)
}

// SetMetrics installs the metrics sink. Pass nil to disable.
func (s *Store) SetMetrics(m Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
}

// deferMetric queues a metric callback for delivery once s.mu is released.
func (s *Store) deferMetricLocked(fn func(Metrics)) {
	if s.metrics != nil {
		s.pending = append(s.pending, fn)
	}
}

// drainMetrics delivers queued metric callbacks. Called by every public
// mutator after releasing the lock.
func (s *Store) drainMetrics() {
	s.mu.Lock()
	m := s.metrics
	pend := s.pending
	s.pending = nil
	s.mu.Unlock()
	if m == nil {
		return
	}
	for _, fn := range pend {
		fn(m)
	}
}

// NewStore opens (creating if needed) a checkpoint store rooted at dir and
// runs the crash-recovery scan before returning.
func NewStore(dir string) (*Store, error) {
	return NewStoreFS(dir, faultfs.OS)
}

// NewStoreFS is NewStore with an explicit filesystem seam. Production code
// passes faultfs.OS (what NewStore does); chaos tests pass an
// injector-wrapped FS so every store op site becomes a fault site.
func NewStoreFS(dir string, fsys faultfs.FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty store directory")
	}
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create store: %w", err)
	}
	s := &Store{
		dir:     dir,
		fs:      fsys,
		objects: map[checksum.Sum]objLoc{},
		refs:    map[checksum.Sum]int{},
		keys:    map[string][]checksum.Sum{},
		segKeys: map[string][]checksum.Sum{},
	}
	if err := s.loadManifestLocked(); err != nil {
		return nil, err
	}
	if _, err := s.recoverLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// pmfPath reports where the named VM's page manifest lives.
func (s *Store) pmfPath(vmName string) string {
	return filepath.Join(s.dir, sanitize(vmName)+pmfSuffix)
}

func (s *Store) genPath(vmName string) string {
	return filepath.Join(s.dir, sanitize(vmName)+".gens.json")
}

// sanitize keeps VM names from escaping the store directory.
func sanitize(name string) string {
	r := strings.NewReplacer("/", "_", "\\", "_", "..", "_", string(os.PathSeparator), "_")
	out := r.Replace(name)
	if out == "" {
		out = "_"
	}
	return out
}

// Has reports whether a servable checkpoint — complete or partial, not
// quarantined — exists for the named VM.
func (s *Store) Has(vmName string) bool {
	info, ok := s.Entry(vmName)
	return ok && info.State != EntryQuarantined
}

// Save checkpoints the VM's memory (and its generation vector) on this
// host, replacing any previous checkpoint of the same VM — including a
// salvage checkpoint, which a completed migration supersedes. Pages whose
// content the object pool already holds (from any VM) are referenced, not
// rewritten. When a quota is set, dead segments are collected and then
// least-recently-used entries are evicted until the new pages fit.
func (s *Store) Save(source *vm.VM) error {
	s.mu.Lock()
	_, err := s.saveLocked(source, EntryComplete, nil)
	s.mu.Unlock()
	s.drainMetrics()
	return err
}

// SaveWithSums is Save with a caller-supplied per-page digest table —
// typically the sum table a migration recorded (core.SumTable). A table
// under ObjectAlgorithm is the entry's key list, so the content-keying scan
// over the whole image is skipped; the store keeps its own copy, so the
// caller may reuse the slice afterwards.
//
// The table is not trusted where a wrong key would reach other VMs: every
// page the save adds to the pool is hashed and checked against its claimed
// key before the segment is written. A destination records full pages'
// sums from the frame headers, so a page corrupted in transit (or sent by
// a lying peer) arrives under the sum of other content; filed under that
// key, dedup would hand it to every VM that later saves the honest
// content, and the union would serve it to other tenants. On a mismatch
// the table is dropped and the save keys the whole image itself. Pages the
// pool already holds are referenced unchecked: a wrong key there can only
// misdescribe this VM's own entry. A nil, short or foreign-algorithm table
// is not an error either — the save silently falls back to rehashing, so
// callers need no special-casing for failed, untracked or MD5 migrations.
func (s *Store) SaveWithSums(source *vm.VM, alg checksum.Algorithm, sums []checksum.Sum) error {
	var keys []checksum.Sum
	if alg == ObjectAlgorithm && len(sums) == source.NumPages() {
		keys = append([]checksum.Sum(nil), sums...)
	}
	s.mu.Lock()
	_, err := s.saveLocked(source, EntryComplete, keys)
	s.mu.Unlock()
	s.drainMetrics()
	return err
}

// SaveSalvage persists the VM's memory as a salvage checkpoint: a partial
// entry holding whatever pages an interrupted incoming migration had
// installed, with its own page manifest. The next incoming attempt
// announces its page sums like any checkpoint, so the source resends only
// what is missing. No generation vector is written — a partial image is
// not a coherent guest state — and any stale one from a previous complete
// checkpoint is removed.
func (s *Store) SaveSalvage(source *vm.VM) error {
	s.mu.Lock()
	_, err := s.saveLocked(source, EntryPartial, nil)
	s.mu.Unlock()
	s.drainMetrics()
	return err
}

// registerSegmentLocked adds a segment's key table to the in-memory pool
// index. The first segment to hold an object wins its location.
func (s *Store) registerSegmentLocked(name string, keys []checksum.Sum) {
	s.segKeys[name] = keys
	for i, k := range keys {
		if _, ok := s.objects[k]; !ok {
			s.objects[k] = objLoc{seg: name, off: segPayloadOffset(len(keys), i)}
		}
	}
}

// registerEntryLocked records an entry's page keys, bumping refcounts (and
// releasing the entry's previous keys, if any).
func (s *Store) registerEntryLocked(key string, pageKeys []checksum.Sum) {
	if old := s.keys[key]; old != nil {
		s.unrefLocked(old)
	}
	s.keys[key] = pageKeys
	for _, k := range pageKeys {
		s.refs[k]++
	}
}

// unrefLocked releases one reference per key occurrence.
func (s *Store) unrefLocked(pageKeys []checksum.Sum) {
	for _, k := range pageKeys {
		if s.refs[k] <= 1 {
			delete(s.refs, k)
		} else {
			s.refs[k]--
		}
	}
}

// dropEntryLocked forgets an entry's in-memory key list and refcounts.
func (s *Store) dropEntryLocked(key string) {
	if old := s.keys[key]; old != nil {
		s.unrefLocked(old)
		delete(s.keys, key)
	}
}

// missingLocked reports the page slots whose objects the pool does not yet
// hold — one slot per distinct missing key, first occurrence wins.
func (s *Store) missingLocked(pageKeys []checksum.Sum) []int {
	var slots []int
	seen := map[checksum.Sum]struct{}{}
	for i, k := range pageKeys {
		if _, ok := s.objects[k]; ok {
			continue
		}
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		slots = append(slots, i)
	}
	return slots
}

// uniqueBytesLocked reports the bytes of entry pages backed by objects no
// other entry references.
func (s *Store) uniqueBytesLocked(key string) int64 {
	pageKeys := s.keys[key]
	if pageKeys == nil {
		return 0
	}
	// A key referenced once is this entry's alone; only keys with several
	// references need their occurrences in this entry counted. Store.Entry
	// runs this on every incoming migration's bootstrap, so the common case
	// builds no map.
	var n int64
	var own map[checksum.Sum]int
	for _, k := range pageKeys {
		if s.refs[k] == 1 {
			n += vm.PageSize
			continue
		}
		if own == nil {
			own = map[checksum.Sum]int{}
		}
		own[k]++
	}
	for k, c := range own {
		if s.refs[k] == c {
			n += vm.PageSize
		}
	}
	return n
}

// saveLocked runs one save transaction. Write order is: new segment (only
// the pages the pool is missing), page manifest, generation vector, then —
// the commit point — the store manifest. A crash before the manifest commit
// leaves the previous transaction's manifest in charge: recovery rolls back
// unrecorded segments and quarantines the entry if its pmf was already
// replaced.
//
// pageKeys, when non-nil, is a store-owned ObjectAlgorithm table
// (SaveWithSums) that replaces the content-keying scan once the pages it
// adds to the pool check out against it.
func (s *Store) saveLocked(source *vm.VM, state EntryState, pageKeys []checksum.Sum) (dedup int, err error) {
	name := source.Name()
	key := sanitize(name)
	memBytes := source.MemBytes()
	supplied := pageKeys != nil
	if !supplied {
		pageKeys = pageSums(source)
		s.deferMetricLocked(func(m Metrics) { m.HashBytes("save_keys", memBytes) })
	}
	newSlots, err := s.placeLocked(key, pageKeys)
	if err != nil {
		return 0, err
	}
	if supplied {
		checked := int64(len(newSlots)) * vm.PageSize
		s.deferMetricLocked(func(m Metrics) { m.HashBytes("save_verify", checked) })
		if keysMatch(source, pageKeys, newSlots) {
			s.deferMetricLocked(func(m Metrics) { m.HashAvoidedBytes(memBytes - checked) })
		} else {
			pageKeys = pageSums(source)
			s.deferMetricLocked(func(m Metrics) { m.HashBytes("save_keys", memBytes) })
			if newSlots, err = s.placeLocked(key, pageKeys); err != nil {
				return 0, err
			}
		}
	}
	dedup = len(pageKeys) - len(newSlots)

	segName := ""
	var segDigest string
	var segKeyList []checksum.Sum
	if len(newSlots) > 0 {
		segKeyList = make([]checksum.Sum, len(newSlots))
		for i, slot := range newSlots {
			segKeyList[i] = pageKeys[slot]
		}
		segName = segmentName(s.man.NextSeg + 1)
		segDigest, err = writeSegment(s.fs, filepath.Join(s.dir, segName), segKeyList, func(i int, buf []byte) {
			source.ReadPage(newSlots[i], buf)
		})
		if err != nil {
			return 0, err
		}
	}
	pmfDigest, err := writePMF(s.fs, s.pmfPath(name), pageKeys)
	if err != nil {
		return 0, err
	}
	if err := kill("pmf-written"); err != nil {
		return 0, err
	}
	if state == EntryComplete {
		gens := source.GenSnapshot()
		raw, err := json.Marshal(gens)
		if err != nil {
			return 0, fmt.Errorf("checkpoint: marshal generations: %w", err)
		}
		if err := atomicWriteFile(s.fs, s.genPath(name), raw, 0o644); err != nil {
			return 0, err
		}
	} else if err := s.fs.Remove(s.genPath(name)); err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("checkpoint: remove stale generations: %w", err)
	}
	if err := kill("gens-written"); err != nil {
		return 0, err
	}
	// Transaction commit: the manifest is written LAST, so a crash at any
	// earlier point leaves recorded digests that no longer match the disk —
	// which the recovery scan quarantines instead of serving.
	if segName != "" {
		s.man.NextSeg++
		s.man.Segments[segName] = segmentRecord{Digest: segDigest, Pages: len(newSlots)}
	}
	s.man.Entries[key] = manifestEntry{State: state, Digest: pmfDigest, Size: source.MemBytes(), Pages: len(pageKeys)}
	if err := s.commitManifestLocked(); err != nil {
		return 0, err
	}
	// The transaction is durable: fold it into the in-memory pool view.
	if segName != "" {
		s.registerSegmentLocked(segName, segKeyList)
	}
	s.registerEntryLocked(key, pageKeys)
	s.dedupPages += int64(dedup)
	if dedup > 0 {
		n := dedup
		s.deferMetricLocked(func(m Metrics) { m.DedupPages(n) })
	}
	return dedup, nil
}

// placeLocked reports the page slots whose objects the pool is missing —
// the pages a save of pageKeys must write — after making room for them
// under the quota, if one is set.
func (s *Store) placeLocked(key string, pageKeys []checksum.Sum) ([]int, error) {
	newSlots := s.missingLocked(pageKeys)
	if s.quota > 0 {
		return s.fitQuotaLocked(key, pageKeys, newSlots)
	}
	return newSlots, nil
}

// minPagesPerSumWorker keeps the parallel keying scan from fanning out
// over trivially small guests; mirrors the migration engine's checksum
// fan-out granularity.
const minPagesPerSumWorker = 256

// sumChunkPages is the contiguous span one hashing worker claims per grab:
// large enough that a single ReadRange (one VM lock acquisition, one
// contiguous copy) amortizes across many hashes, small enough that the tail
// of the image still balances across the pool.
const sumChunkPages = 256

// forSpans splits [0, n) into sumChunkPages-sized spans that up to
// GOMAXPROCS workers claim off an atomic cursor, calling fn with each
// span and the worker's span-sized page buffer.
func forSpans(n int, fn func(start, count int, buf []byte)) {
	chunk := min(sumChunkPages, n)
	var next atomic.Int64
	scan := func() {
		buf := make([]byte, chunk*vm.PageSize)
		for {
			start := int(next.Add(int64(chunk))) - chunk
			if start >= n {
				return
			}
			fn(start, min(chunk, n-start), buf)
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n/minPagesPerSumWorker)
	if workers < 2 {
		scan()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan()
		}()
	}
	wg.Wait()
}

// pageSums computes the ObjectAlgorithm key of every page of a live VM — the
// content-keying scan. Each span is copied out with one ReadRange before
// hashing: page-at-a-time PageSum calls paid one lock round-trip per 4 KiB,
// which throttled the Save-time keying scan.
func pageSums(v *vm.VM) []checksum.Sum {
	sums := make([]checksum.Sum, v.NumPages())
	forSpans(len(sums), func(start, count int, buf []byte) {
		span := buf[:count*vm.PageSize]
		v.ReadRange(start, count, span)
		for i := 0; i < count; i++ {
			sums[start+i] = ObjectAlgorithm.Page(span[i*vm.PageSize : (i+1)*vm.PageSize])
		}
	})
	return sums
}

// keysMatch reports whether pageKeys[slot] is the ObjectAlgorithm digest of
// the VM's page slot for every listed slot.
func keysMatch(v *vm.VM, pageKeys []checksum.Sum, slots []int) bool {
	var bad atomic.Bool
	forSpans(len(slots), func(start, count int, buf []byte) {
		page := buf[:vm.PageSize]
		for _, slot := range slots[start : start+count] {
			v.ReadPage(slot, page)
			if ObjectAlgorithm.Page(page) != pageKeys[slot] {
				bad.Store(true)
				return
			}
		}
	})
	return !bad.Load()
}

// resolveLocked maps page keys to open-file page references, opening each
// backing segment once. The returned files are owned by the caller (they
// become the Checkpoint's, closed on its Close). Because the fds are opened
// under the store lock, a concurrent GC deleting a compacted segment only
// unlinks the name — the handle keeps serving the old bytes.
func (s *Store) resolveLocked(pageKeys []checksum.Sum) (refs []pageRef, files []faultfs.File, err error) {
	open := map[string]faultfs.File{}
	defer func() {
		if err != nil {
			for _, f := range files {
				f.Close()
			}
		}
	}()
	refs = make([]pageRef, len(pageKeys))
	for i, k := range pageKeys {
		loc, ok := s.objects[k]
		if !ok {
			return nil, nil, fmt.Errorf("checkpoint: object %s missing from pool", k)
		}
		f := open[loc.seg]
		if f == nil {
			f, err = s.fs.Open(filepath.Join(s.dir, loc.seg))
			if err != nil {
				return nil, nil, fmt.Errorf("checkpoint: open segment: %w", err)
			}
			open[loc.seg] = f
			files = append(files, f)
		}
		refs[i] = pageRef{f: f, off: loc.off}
	}
	return refs, files, nil
}

// Restore opens the named VM's checkpoint and returns the indexed handle
// for the merge phase, installing its pages into dst (Checkpoint.Install)
// when dst is non-nil. Under ObjectAlgorithm the index is the entry's key
// list and Restore hashes nothing; under any other algorithm it reads and
// hashes every page first (the paper's §3.3 rescan). Quarantined entries are refused: a checkpoint
// that failed its integrity check is never served.
func (s *Store) Restore(vmName string, alg checksum.Algorithm, dst *vm.VM) (*Checkpoint, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid checksum algorithm")
	}
	key := sanitize(vmName)
	s.mu.Lock()
	e, ok := s.man.Entries[key]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("checkpoint: no checkpoint for %q: %w", vmName, os.ErrNotExist)
	}
	if e.State == EntryQuarantined {
		s.mu.Unlock()
		return nil, fmt.Errorf("checkpoint: %q is quarantined (%s); refusing to serve", vmName, e.Reason)
	}
	pageKeys := s.keys[key]
	refs, files, err := s.resolveLocked(pageKeys)
	verify := s.verifyOnRestore
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if verify {
		if err := s.Verify(vmName); err != nil {
			closeAll(files)
			return nil, err
		}
	}
	cp, err := openEntry(alg, pageKeys, refs, files)
	if err != nil {
		closeAll(files)
		return nil, err
	}
	if dst != nil {
		if err := cp.Install(dst); err != nil {
			cp.Close()
			return nil, err
		}
	}
	s.touch(vmName)
	return cp, nil
}

func closeAll(files []faultfs.File) {
	for _, f := range files {
		f.Close()
	}
}

// openEntry builds a Checkpoint for one entry from its object keys and
// resolved page refs. Under ObjectAlgorithm the keys are the announce sums
// and no page is read; under any other algorithm every page is read and
// hashed.
func openEntry(alg checksum.Algorithm, pageKeys []checksum.Sum, refs []pageRef, files []faultfs.File) (*Checkpoint, error) {
	if alg == ObjectAlgorithm {
		return newCheckpoint(alg, pageKeys, refs, files), nil
	}
	sums := make([]checksum.Sum, len(refs))
	buf := make([]byte, min(len(refs), restoreRunPages)*vm.PageSize)
	err := forRuns(refs, func(first, count int) error {
		run := buf[:count*vm.PageSize]
		if _, err := refs[first].f.ReadAt(run, refs[first].off); err != nil {
			return fmt.Errorf("checkpoint: read pages %d-%d: %w", first, first+count-1, err)
		}
		for k := 0; k < count; k++ {
			sums[first+k] = alg.Page(run[k*vm.PageSize : (k+1)*vm.PageSize])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newCheckpoint(alg, sums, refs, files), nil
}

// restoreRunPages caps the pages one bootstrap read covers: 1 MiB of
// scratch, a handful of reads per segment instead of one per page.
const restoreRunPages = 256

// forRuns walks refs in page order in runs of pages that sit back to back
// in one file (a segment stores a save's new pages contiguously), at most
// restoreRunPages long, calling fn with each run's first page index and
// length.
func forRuns(refs []pageRef, fn func(first, count int) error) error {
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && j-i < restoreRunPages &&
			refs[j].f == refs[i].f && refs[j].off == refs[j-1].off+vm.PageSize {
			j++
		}
		if err := fn(i, j-i); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// OpenUnion builds a Checkpoint over the union of every servable entry in
// the store — other VMs' checkpoints, older content, salvage partials. The
// destination of a fresh VM's migration (no checkpoint of its own) opens
// the union and announces it, so the source skips every page any resident
// checkpoint holds (the paper's §3.1 redundancy, pooled host-wide). The
// union is indexed and announced under ObjectAlgorithm only: recycling
// across VMs must rest on a collision-resistant identity, and the object
// keys already in memory are that identity, so the union reads and hashes
// nothing. It has no page-frame geometry: PageAt reports no frames, so it
// can never serve as a delta base — matching the partial-checkpoint rules
// the wire protocol already carries.
//
// Returns the union checkpoint and the names of the entries it covers, or
// (nil, nil, nil) when the store holds nothing servable.
//
// The union is an optimization, so a single sick entry must not cost the
// migration its whole bootstrap: an entry whose segments cannot be opened
// is skipped — reported through the Metrics Degraded callback with stage
// "union-read" — and the union is built from the rest. Skipped entries stay
// in the store untouched (a transient open error is not evidence of
// corruption; Scrub and Verify decide quarantines).
func (s *Store) OpenUnion() (*Checkpoint, []string, error) {
	type member struct {
		keys []checksum.Sum
		refs []pageRef
	}
	var members []member
	var names []string
	var files []faultfs.File
	open := map[string]faultfs.File{}
	// Resolve under the lock, fold after it: the fold is O(pages stored),
	// and the key lists it reads are never mutated in place.
	s.mu.Lock()
	for _, key := range sortedKeys(s.man.Entries) {
		if s.man.Entries[key].State == EntryQuarantined {
			continue
		}
		pageKeys := s.keys[key]
		refs := make([]pageRef, len(pageKeys))
		var resolveErr error
		for i, k := range pageKeys {
			loc, ok := s.objects[k]
			if !ok {
				resolveErr = fmt.Errorf("checkpoint: object %s missing from pool", k)
				break
			}
			f := open[loc.seg]
			if f == nil {
				f, resolveErr = s.fs.Open(filepath.Join(s.dir, loc.seg))
				if resolveErr != nil {
					break
				}
				open[loc.seg] = f
				files = append(files, f)
			}
			refs[i] = pageRef{f: f, off: loc.off}
		}
		if resolveErr != nil {
			fault := faultfs.Label(resolveErr)
			s.deferMetricLocked(func(m Metrics) { m.Degraded("union-read", fault) })
			continue
		}
		names = append(names, key)
		members = append(members, member{keys: pageKeys, refs: refs})
	}
	s.mu.Unlock()
	s.drainMetrics()
	if len(names) == 0 {
		closeAll(files)
		return nil, nil, nil
	}
	cp := &Checkpoint{alg: ObjectAlgorithm, files: files, sums: checksum.NewSet(0)}
	for _, m := range members {
		for i, sum := range m.keys {
			if !cp.sums.Contains(sum) {
				cp.sums.Add(sum)
				cp.index.add(sum, m.refs[i])
			}
		}
	}
	return cp, names, nil
}

// Generations loads the Miyakodori generation vector stored with the
// checkpoint, or ok=false if none exists.
func (s *Store) Generations(vmName string) (dirtytrack.GenVector, bool, error) {
	raw, err := s.fs.ReadFile(s.genPath(vmName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: read generations: %w", err)
	}
	var gens dirtytrack.GenVector
	if err := json.Unmarshal(raw, &gens); err != nil {
		return nil, false, fmt.Errorf("checkpoint: parse generations: %w", err)
	}
	return gens, true, nil
}

// Remove deletes the named VM's entry — page manifest, generation vector
// and manifest record — and releases its object references. The only way out
// of quarantine. Object payloads stay pooled until a GC pass collects the
// segments nothing references anymore.
func (s *Store) Remove(vmName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(vmName)
}

func (s *Store) removeLocked(vmName string) error {
	key := sanitize(vmName)
	_, recorded := s.man.Entries[key]
	for _, p := range []string{s.pmfPath(vmName), s.genPath(vmName)} {
		if err := s.fs.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: remove %s: %w", p, err)
		}
	}
	s.dropEntryLocked(key)
	if recorded {
		delete(s.man.Entries, key)
		return s.commitManifestLocked()
	}
	return nil
}

// Quarantine marks the named VM's entry as quarantined with the given
// reason: the store keeps its files for forensics but refuses to serve it
// (Restore errors, OpenUnion and announcements exclude it) until Remove
// clears the record. The degradation ladder calls this when a recycled
// page read fails mid-merge — the entry's bytes can no longer be trusted
// to be readable, and excluding it lets the retry converge over the wire.
// Quarantining an already-quarantined entry updates nothing; a missing
// entry is not an error (the caller often cannot tell a union bootstrap
// from an own-entry one).
func (s *Store) Quarantine(vmName, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := sanitize(vmName)
	e, ok := s.man.Entries[key]
	if !ok || e.State == EntryQuarantined {
		return nil
	}
	e.State = EntryQuarantined
	e.Reason = reason
	s.man.Entries[key] = e
	return s.commitManifestLocked()
}

// List reports the VM names with store entries, whatever their state,
// sorted. Use Entries for states and Has for serveability.
func (s *Store) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.listLocked()
}

func (s *Store) listLocked() ([]string, error) {
	names := make([]string, 0, len(s.man.Entries))
	for key := range s.man.Entries {
		names = append(names, key)
	}
	sort.Strings(names)
	return names, nil
}
