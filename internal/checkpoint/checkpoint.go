// Package checkpoint implements VeCycle's recycled VM checkpoints (§3.3),
// stored content addressed and host wide.
//
// The paper's mechanism: after an outgoing migration the source dumps the
// guest's memory to local disk; a later incoming migration re-reads it,
// computes one checksum per 4 KiB block, records each with its location in
// a sorted list, and answers checksums from the wire by binary search —
// reusing local bytes instead of network ones. This package keeps that
// merge-loop contract (Index, Checkpoint.ReadBlock) and adds the layers the
// paper's evaluation assumes but does not spell out:
//
//   - object pool (object.go): every distinct page is persisted once per
//     host in append-only segment files, keyed by a collision-resistant
//     checksum — the paper's §3.1 content redundancy, pooled across VMs,
//     generations, and salvage partials instead of duplicated per image;
//   - page manifests (pmf.go): a checkpoint entry is a page-ordered list of
//     object keys, so N near-identical guests cost the disk one copy of
//     their shared pages;
//   - store manifest (manifest.go) + recovery (recovery.go): the
//     crash-consistency layer — every mutation commits atomically via the
//     manifest, and startup replays recorded digests, quarantining torn
//     entries and rolling back uncommitted files;
//   - refcounts + GC (store.go, gc.go): dead objects become reclaimed bytes
//     by deleting and compacting segments, never by rewriting manifests;
//   - fingerprint sidecars (sidecar.go): persisted per-entry page sums that
//     let a warm Restore skip the O(RAM) rescan of §3.3;
//   - union bootstrap (Store.OpenUnion): a destination with no checkpoint
//     for the incoming VM announces the union of everything resident, so
//     even a first visit reuses any page some other guest already brought.
//
// The flat Write/Open pair still operates on single raw image files; the
// Store is the content-addressed layer above, and adopts such legacy images
// into the pool on first open.
package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"vecycle/internal/checksum"
	"vecycle/internal/faultfs"
	"vecycle/internal/vm"
)

// pageRef locates one page's payload: a byte offset in an open backing file
// (a flat image or a pool segment). The file is held behind the faultfs
// seam; outside chaos tests it is a bare *os.File, so the indirection costs
// one interface dispatch per ReadAt — a syscall-dominated call either way.
type pageRef struct {
	f   faultfs.File
	off int64
}

// indexEntry pairs a block checksum with the location of its payload.
type indexEntry struct {
	sum checksum.Sum
	ref pageRef
}

// Index maps block checksums to payload locations. It is the sorted list of
// §3.3, queried by binary search during the destination's merge loop.
type Index struct {
	entries []indexEntry
}

// add records a block. Called in page order during the sequential scan.
func (ix *Index) add(sum checksum.Sum, ref pageRef) {
	ix.entries = append(ix.entries, indexEntry{sum: sum, ref: ref})
}

// sort orders the entries for binary search, keeping the lowest offset for
// duplicate checksums (any copy of identical content works).
func (ix *Index) sort() {
	sort.Slice(ix.entries, func(i, j int) bool {
		c := bytes.Compare(ix.entries[i].sum[:], ix.entries[j].sum[:])
		if c != 0 {
			return c < 0
		}
		return ix.entries[i].ref.off < ix.entries[j].ref.off
	})
}

// Lookup reports the payload location of a block with the given checksum.
func (ix *Index) Lookup(sum checksum.Sum) (ref pageRef, ok bool) {
	i := sort.Search(len(ix.entries), func(i int) bool {
		return bytes.Compare(ix.entries[i].sum[:], sum[:]) >= 0
	})
	if i < len(ix.entries) && ix.entries[i].sum == sum {
		return ix.entries[i].ref, true
	}
	return pageRef{}, false
}

// Len reports the number of indexed blocks.
func (ix *Index) Len() int { return len(ix.entries) }

// Write dumps the VM's memory to path as a raw page-ordered image,
// streaming pages sequentially — the paper's checkpoint format, used
// directly by tooling and tests; the Store's save path pools pages instead.
func Write(path string, source *vm.VM) error {
	_, err := writeImage(path, source)
	return err
}

// writeImage streams the VM's memory to path and returns the hex SHA-256 of
// the written bytes, computed in the same pass. The image lands via
// tmp+fsync+rename+dir-fsync, so a crash mid-write leaves the previous
// image intact, never a torn one under the final name.
func writeImage(path string, source *vm.VM) (digest string, err error) {
	fsys := faultfs.OS
	tmp := path + tmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			if !killed(err) {
				fsys.Remove(tmp)
			}
		}
	}()
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	buf := make([]byte, vm.PageSize)
	for i := 0; i < source.NumPages(); i++ {
		source.ReadPage(i, buf)
		if _, err = bw.Write(buf); err != nil {
			return "", fmt.Errorf("checkpoint: write page %d: %w", i, err)
		}
	}
	if err = bw.Flush(); err != nil {
		return "", fmt.Errorf("checkpoint: flush: %w", err)
	}
	if err = kill("image-written"); err != nil {
		return "", err
	}
	if err = f.Sync(); err != nil {
		return "", fmt.Errorf("checkpoint: sync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return "", fmt.Errorf("checkpoint: close %s: %w", tmp, err)
	}
	if err = kill("image-synced"); err != nil {
		return "", err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("checkpoint: rename %s: %w", tmp, err)
	}
	if err = kill("image-renamed"); err != nil {
		return "", err
	}
	if err = syncDir(fsys, filepath.Dir(path)); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Checkpoint is an opened checkpoint: the checksum→location index for the
// merge loop, the announcement sum set, and the page-frame geometry (for
// entries that have one — the union of a whole store does not). The backing
// files may be a single flat image or several shared pool segments; Close
// releases them all.
type Checkpoint struct {
	files   []faultfs.File
	alg     checksum.Algorithm
	index   Index
	sums    *checksum.Set
	frames  []pageRef // per-page-frame payloads; nil when the checkpoint has no frame geometry
	pages   int
	sidecar SidecarStatus
	// installed holds the page-ordered sums of what Store.Restore installed
	// into its destination VM; nil when nothing was installed.
	installed []checksum.Sum
}

// newCheckpoint assembles a Checkpoint whose page i lives at refs[i] and
// hashes to sums[i]. The files are adopted (closed by Close).
func newCheckpoint(alg checksum.Algorithm, sums []checksum.Sum, refs []pageRef, files []faultfs.File, status SidecarStatus) *Checkpoint {
	cp := &Checkpoint{
		files:   files,
		alg:     alg,
		sums:    checksum.NewSet(len(sums)),
		frames:  refs,
		pages:   len(refs),
		sidecar: status,
	}
	cp.index.entries = make([]indexEntry, len(sums))
	for i, s := range sums {
		cp.index.entries[i] = indexEntry{sum: s, ref: refs[i]}
		cp.sums.Add(s)
	}
	cp.index.sort()
	return cp
}

// OpenConfig tunes how Open builds the checksum index.
type OpenConfig struct {
	// NoSidecar bypasses the fingerprint sidecar entirely: the index is
	// rebuilt by the full rescan and no sidecar is read or written.
	NoSidecar bool
	// ExpectedDigest, when non-empty, is the hex digest the sidecar must
	// record to be trusted (for flat images, the image's SHA-256). A sidecar
	// recording a different digest is stale and ignored, and the digest is
	// embedded in any sidecar rewrite.
	ExpectedDigest string
}

// Open scans the flat image at path sequentially, building the checksum
// index and the announcement set. If dst is non-nil each block is also
// installed into the corresponding page of dst — the destination's RAM
// bootstrap — in which case the image size must match the VM's memory
// exactly.
//
// When a valid fingerprint sidecar sits next to the image the scan is
// skipped: the index loads from the sidecar and the image is only read (a
// plain sequential copy, no hashing) when dst needs its pages installed.
func Open(path string, alg checksum.Algorithm, dst *vm.VM) (*Checkpoint, error) {
	return OpenWith(path, alg, dst, OpenConfig{})
}

// OpenWith is Open with explicit sidecar configuration.
func OpenWith(path string, alg checksum.Algorithm, dst *vm.VM, cfg OpenConfig) (*Checkpoint, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid checksum algorithm")
	}
	f, err := faultfs.OS.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: stat: %w", err)
	}
	if st.Size()%vm.PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("checkpoint: image size %d not a multiple of the page size", st.Size())
	}
	pages := int(st.Size() / vm.PageSize)
	if dst != nil && dst.NumPages() != pages {
		f.Close()
		return nil, fmt.Errorf("checkpoint: image has %d pages, VM has %d", pages, dst.NumPages())
	}
	cp := &Checkpoint{
		files:   []faultfs.File{f},
		alg:     alg,
		sums:    checksum.NewSet(pages),
		pages:   pages,
		sidecar: SidecarDisabled,
	}
	if !cfg.NoSidecar {
		sums, serr := loadSidecar(faultfs.OS, SidecarPath(path), alg, st.Size(), cfg.ExpectedDigest)
		switch {
		case serr == nil:
			if err := cp.fromSums(f, sums, dst); err != nil {
				f.Close()
				return nil, err
			}
			cp.sidecar = SidecarHit
			cp.index.sort()
			return cp, nil
		case os.IsNotExist(serr):
			cp.sidecar = SidecarMiss
		default:
			cp.sidecar = SidecarFallback
		}
	}
	br := bufio.NewReaderSize(f, 1<<20)
	workers := runtime.GOMAXPROCS(0)
	if workers > pages/openChunkPages {
		workers = pages / openChunkPages
	}
	if workers < 2 {
		// Small image or single core: the sequential scan of §3.3.
		cp.index.entries = make([]indexEntry, 0, pages)
		buf := make([]byte, vm.PageSize)
		for i := 0; i < pages; i++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				f.Close()
				return nil, fmt.Errorf("checkpoint: read block %d: %w", i, err)
			}
			sum := alg.Page(buf)
			cp.index.add(sum, pageRef{f: f, off: int64(i) * vm.PageSize})
			cp.sums.Add(sum)
			if dst != nil {
				dst.InstallPage(i, buf)
			}
		}
	} else if err := openParallel(br, f, alg, dst, cp, pages, workers); err != nil {
		f.Close()
		return nil, err
	}
	if !cfg.NoSidecar {
		// Self-heal: persist the freshly rebuilt index so the next Open is
		// warm. Entries are still in page order here (sorting happens
		// below), so the entry list doubles as the page-ordered sum list.
		// Best effort — a failed rewrite only costs the next Open a rescan.
		entries := cp.index.entries
		_ = writeSidecar(faultfs.OS, SidecarPath(path), alg, st.Size(), cfg.ExpectedDigest,
			len(entries), func(i int) checksum.Sum { return entries[i].sum })
	}
	cp.frames = cp.frameRefs(f, pages)
	cp.index.sort()
	return cp, nil
}

// frameRefs builds the page-frame geometry of a flat image: frame i at byte
// offset i*PageSize of f.
func (c *Checkpoint) frameRefs(f faultfs.File, pages int) []pageRef {
	refs := make([]pageRef, pages)
	for i := range refs {
		refs[i] = pageRef{f: f, off: int64(i) * vm.PageSize}
	}
	return refs
}

// fromSums builds the index and announcement set from sidecar-loaded
// page-ordered sums, installing the image into dst when non-nil. The
// install is a plain sequential read — no hashing, the sums are already
// known.
func (c *Checkpoint) fromSums(f faultfs.File, sums []checksum.Sum, dst *vm.VM) error {
	entries := make([]indexEntry, len(sums))
	for i, s := range sums {
		entries[i] = indexEntry{sum: s, ref: pageRef{f: f, off: int64(i) * vm.PageSize}}
		c.sums.Add(s)
	}
	c.index.entries = entries
	c.frames = c.frameRefs(f, c.pages)
	if dst == nil {
		return nil
	}
	br := bufio.NewReaderSize(f, 1<<20)
	buf := make([]byte, vm.PageSize)
	for i := 0; i < c.pages; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return fmt.Errorf("checkpoint: read block %d: %w", i, err)
		}
		dst.InstallPage(i, buf)
	}
	return nil
}

// openChunkPages is the work unit of the parallel index build: 2 MiB of
// image per dispatch keeps channel overhead negligible.
const openChunkPages = 512

// openParallel fans the per-block checksum (and the optional RAM install)
// out across `workers` goroutines while the file itself is still read
// strictly sequentially — preserving the paper's "optimal use of the disk's
// available I/O bandwidth" while removing the hash from the critical path.
// Index entries are written positionally, so the result is identical to the
// sequential scan's.
func openParallel(br io.Reader, f faultfs.File, alg checksum.Algorithm, dst *vm.VM, cp *Checkpoint, pages, workers int) error {
	entries := make([]indexEntry, pages)
	type chunk struct {
		start int
		buf   []byte
	}
	free := make(chan []byte, workers+2)
	for i := 0; i < workers+2; i++ {
		free <- make([]byte, openChunkPages*vm.PageSize)
	}
	work := make(chan chunk)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				n := len(c.buf) / vm.PageSize
				for i := 0; i < n; i++ {
					page := c.start + i
					block := c.buf[i*vm.PageSize : (i+1)*vm.PageSize]
					entries[page] = indexEntry{sum: alg.Page(block), ref: pageRef{f: f, off: int64(page) * vm.PageSize}}
					if dst != nil {
						dst.InstallPage(page, block)
					}
				}
				free <- c.buf
			}
		}()
	}
	var readErr error
	for off := 0; off < pages; off += openChunkPages {
		n := openChunkPages
		if off+n > pages {
			n = pages - off
		}
		buf := (<-free)[:n*vm.PageSize]
		if _, err := io.ReadFull(br, buf); err != nil {
			readErr = fmt.Errorf("checkpoint: read block %d: %w", off, err)
			break
		}
		work <- chunk{start: off, buf: buf}
	}
	close(work)
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	cp.index.entries = entries
	for i := range entries {
		cp.sums.Add(entries[i].sum)
	}
	return nil
}

// Pages reports the number of page frames the checkpoint describes — zero
// for a union checkpoint, which has content but no frame geometry.
func (c *Checkpoint) Pages() int { return c.pages }

// Sidecar reports how this open interacted with the fingerprint sidecar:
// loaded from it (hit), rebuilt because none existed (miss), rebuilt because
// it failed validation (fallback), or bypassed (disabled).
func (c *Checkpoint) Sidecar() SidecarStatus { return c.sidecar }

// Algorithm reports the checksum algorithm the index was built with.
func (c *Checkpoint) Algorithm() checksum.Algorithm { return c.alg }

// InstalledSums returns the page-ordered digests of the pages Store.Restore
// installed into its destination VM, under the checkpoint's algorithm, or
// nil when the open installed nothing (no destination VM, a union, a flat
// image). They are either the fingerprint sidecar's, which is anchored to
// the entry digest and trusted exactly as far as ReadBlock's index is, or
// the rescan's, which hashed the very bytes it installed. The caller must
// not mutate the slice.
func (c *Checkpoint) InstalledSums() []checksum.Sum { return c.installed }

// SumSet returns the set of block checksums present in the checkpoint — the
// content of the destination's hash announcement. The caller must not
// mutate it.
func (c *Checkpoint) SumSet() *checksum.Set { return c.sums }

// blockPool recycles ReadBlock buffers: the destination merge loop resolves
// one block per reused-from-disk page, and a per-call 4 KiB allocation is
// pure GC pressure on that hot path. Buffers return via Release.
var blockPool = sync.Pool{New: func() interface{} {
	return make([]byte, vm.PageSize)
}}

// ReadBlock returns the content of a block with the given checksum, or
// ok=false if no such block exists. This is the lseek+read of Listing 1,
// executed when an incoming checksum does not match the page frame's
// current content. ReadBlock is safe for concurrent use (reads go through
// ReadAt). The returned buffer may be recycled by passing it to Release
// once its content has been consumed.
func (c *Checkpoint) ReadBlock(sum checksum.Sum) (data []byte, ok bool, err error) {
	ref, ok := c.index.Lookup(sum)
	if !ok {
		return nil, false, nil
	}
	buf := blockPool.Get().([]byte)
	if _, err := ref.f.ReadAt(buf, ref.off); err != nil {
		blockPool.Put(buf) //nolint:staticcheck // SA6002: 4 KiB slice, header alloc is fine
		return nil, true, fmt.Errorf("checkpoint: read block at %d: %w", ref.off, err)
	}
	return buf, true, nil
}

// Release returns a buffer obtained from ReadBlock to the internal pool.
// The caller must not touch data afterwards. Releasing is optional — an
// unreleased buffer is simply garbage-collected.
func (c *Checkpoint) Release(data []byte) {
	if cap(data) < vm.PageSize {
		return
	}
	blockPool.Put(data[:vm.PageSize]) //nolint:staticcheck // SA6002
}

// PageAt returns the checkpoint's content for page frame i — the content
// the destination's RAM holds right after its checkpoint bootstrap. The
// source of a delta-encoded migration reads its own mirror of the
// destination's checkpoint through this method. ok is false when the frame
// is outside the image, or when the checkpoint has no frame geometry at all
// (a union bootstrap — which is exactly why a union is never a delta base).
func (c *Checkpoint) PageAt(frame int) (data []byte, ok bool, err error) {
	if frame < 0 || frame >= len(c.frames) {
		return nil, false, nil
	}
	ref := c.frames[frame]
	buf := make([]byte, vm.PageSize)
	if _, err := ref.f.ReadAt(buf, ref.off); err != nil {
		return nil, true, fmt.Errorf("checkpoint: read frame %d: %w", frame, err)
	}
	return buf, true, nil
}

// Close releases the underlying files.
func (c *Checkpoint) Close() error {
	var first error
	for _, f := range c.files {
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("checkpoint: close: %w", err)
		}
	}
	return first
}
