package core

import (
	"context"
	"net"
	"sync"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// warmHostScenario returns a store holding a resident neighbor's checkpoint
// and a fresh VM that shares exactly the first half of its pages with that
// neighbor.
func warmHostScenario(t *testing.T, pages int) (*checkpoint.Store, *vm.VM) {
	t.Helper()
	store := newStore(t)
	neighbor := newVM(t, "neighbor", pages, 3)
	if err := neighbor.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(neighbor); err != nil {
		t.Fatal(err)
	}
	src := newVM(t, "vm0", pages, 9)
	if err := src.FillRandom(1.0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, vm.PageSize)
	for i := 0; i < pages/2; i++ {
		neighbor.ReadPage(i, buf)
		src.InstallPage(i, buf)
	}
	return store, src
}

// TestUnionBootstrapFreshVM is the warm-host acceptance case: a VM that has
// never visited the destination migrates onto a host whose store holds a
// different VM's checkpoint. The content-addressed pool announces the union
// of resident content, so every page the newcomer shares with the resident
// crosses the wire as a checksum, not a payload.
func TestUnionBootstrapFreshVM(t *testing.T) {
	const pages = 32
	store, src := warmHostScenario(t, pages)

	var sawUnion bool
	dst := newVM(t, "vm0", pages, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: store, VerifyPayloads: true, OnEvent: func(e Event) {
			if e.Kind == EventUnion {
				sawUnion = true
			}
		}})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs after union-bootstrap migration (page %d)",
			src.FirstDifference(dst))
	}
	if !dres.UsedCheckpoint || !dres.UnionBootstrap {
		t.Errorf("UsedCheckpoint=%v UnionBootstrap=%v, want both true",
			dres.UsedCheckpoint, dres.UnionBootstrap)
	}
	if dres.ResumedFromPartial {
		t.Error("union bootstrap misreported as a salvage resume")
	}
	if !sawUnion {
		t.Error("no EventUnion emitted")
	}
	// The shared half rode the announcement: checksum frames, no payloads.
	if sm.PagesSum != pages/2 {
		t.Errorf("source sent %d checksum pages, want %d", sm.PagesSum, pages/2)
	}
	if got := dres.Metrics.PagesReusedFromDisk; got != pages/2 {
		t.Errorf("destination resolved %d pages from the pool, want %d", got, pages/2)
	}
	// Union content was never installed into RAM, so nothing may arrive as a
	// delta against it.
	if dres.Metrics.PagesDelta != 0 {
		t.Errorf("union bootstrap produced %d delta pages, want 0", dres.Metrics.PagesDelta)
	}
}

// TestUnionBootstrapEmptyStore keeps the baseline intact: an empty store has
// no union to announce, so the migration runs full with no checkpoint bits
// set.
func TestUnionBootstrapEmptyStore(t *testing.T) {
	src := newVM(t, "vm0", 8, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	dst := newVM(t, "vm0", 8, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true},
		DestOptions{Store: newStore(t), VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatal("memory differs after baseline migration")
	}
	if dres.UsedCheckpoint || dres.UnionBootstrap {
		t.Errorf("empty store set UsedCheckpoint=%v UnionBootstrap=%v",
			dres.UsedCheckpoint, dres.UnionBootstrap)
	}
	if sm.PagesSum != 0 {
		t.Errorf("empty store still produced %d checksum pages", sm.PagesSum)
	}
}

// TestUnionNeedsObjectIdentity: pages cross VMs only under the store's own
// collision-resistant identity. The warm-host scenario that recycles the
// shared half under the default algorithm (TestUnionBootstrapFreshVM) opens
// no union under MD5, whose collisions one tenant could plant against
// another: every page travels in full.
func TestUnionNeedsObjectIdentity(t *testing.T) {
	const pages = 32
	store, src := warmHostScenario(t, pages)
	dst := newVM(t, "vm0", pages, 2)
	sm, dres := migrate(t, src, dst,
		SourceOptions{Recycle: true, Alg: checksum.MD5},
		DestOptions{Store: store, VerifyPayloads: true})
	if !src.MemEqual(dst) {
		t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
	}
	if dres.UsedCheckpoint || dres.UnionBootstrap {
		t.Errorf("UsedCheckpoint=%v UnionBootstrap=%v under md5, want both false",
			dres.UsedCheckpoint, dres.UnionBootstrap)
	}
	if sm.PagesFull != pages || sm.PagesSum != 0 {
		t.Errorf("sent %d full and %d checksum pages, want %d and 0", sm.PagesFull, sm.PagesSum, pages)
	}
}

// TestCorruptFrameNeverKeysAnObject: a full page corrupted in transit still
// arrives under its header's sum, and without VerifyPayloads the
// destination records that sum as the page's digest. Saving the arrival
// with that table must not file the corrupt bytes under the honest key:
// the store must still verify, a VM holding the honest content must
// restore it intact, and a fresh VM bootstrapped from the union must
// arrive intact.
func TestCorruptFrameNeverKeysAnObject(t *testing.T) {
	const pages = 16
	honest := func(name string) *vm.VM {
		v := newVM(t, name, pages, 1)
		if err := v.FillRandom(1.0); err != nil {
			t.Fatal(err)
		}
		return v
	}
	src := honest("vm0")
	dst := newVM(t, "vm0", pages, 2)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	evil := &corruptConn{Conn: a, target: 10_000}
	var wg sync.WaitGroup
	var serr, derr error
	var dres DestResult
	wg.Add(2)
	go func() { defer wg.Done(); _, serr = MigrateSource(context.Background(), evil, src, SourceOptions{}) }()
	go func() {
		defer wg.Done()
		dres, derr = MigrateDest(context.Background(), b, dst, DestOptions{TrackIncoming: true})
	}()
	wg.Wait()
	if serr != nil || derr != nil {
		t.Fatalf("migration failed: source=%v dest=%v", serr, derr)
	}
	if src.MemEqual(dst) {
		t.Fatal("corruptConn did not hit a payload")
	}
	sums, ok := dres.PageSums.Sums()
	if !ok || dres.PageSums.Alg() != checkpoint.ObjectAlgorithm {
		t.Fatalf("arrival table complete=%v alg=%v, want a complete default-algorithm table", ok, dres.PageSums.Alg())
	}

	store := newStore(t)
	if err := store.SaveWithSums(dst, dres.PageSums.Alg(), sums); err != nil {
		t.Fatal(err)
	}
	if err := store.Verify("vm0"); err != nil {
		t.Errorf("Verify after saving the corrupted arrival: %v", err)
	}
	twin := honest("twin")
	if err := store.Save(twin); err != nil {
		t.Fatal(err)
	}
	restored := newVM(t, "twin", pages, 3)
	cp, err := store.Restore("twin", checkpoint.ObjectAlgorithm, restored)
	if err != nil {
		t.Fatal(err)
	}
	cp.Close()
	if !twin.MemEqual(restored) {
		t.Errorf("twin restored wrong content at page %d", twin.FirstDifference(restored))
	}

	fresh := honest("fresh")
	landed := newVM(t, "fresh", pages, 4)
	_, ures := migrate(t, fresh, landed, SourceOptions{Recycle: true}, DestOptions{Store: store})
	if !ures.UnionBootstrap {
		t.Error("fresh VM did not bootstrap from the union")
	}
	if !fresh.MemEqual(landed) {
		t.Errorf("union bootstrap delivered wrong content at page %d", fresh.FirstDifference(landed))
	}
}
