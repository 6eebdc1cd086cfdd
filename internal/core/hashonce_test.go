package core

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

// arrivalOf records v's current content as a complete arrival table under
// alg, paired with the generation snapshot it describes.
func arrivalOf(v *vm.VM, alg checksum.Algorithm) ArrivalSums {
	tbl := NewSumTable()
	tbl.reset(alg, v.NumPages())
	for i := 0; i < v.NumPages(); i++ {
		tbl.record(i, v.PageSum(i, alg))
	}
	tbl.markComplete()
	return ArrivalSums{Table: tbl, Gens: v.GenSnapshot()}
}

// TestCrossHopArrivalSums carries a VM across two hops. It arrives on its
// middle host with a tracked table, the guest writes between arrival and
// departure, and a concurrent writer keeps writing through round one of
// the second hop — some pages with fresh content, some with content the
// final host's checkpoint holds elsewhere. Whatever round one took from
// the arrival table, the final host must end with the source's memory.
func TestCrossHopArrivalSums(t *testing.T) {
	const pages = 1024
	for _, workers := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			origin := newVM(t, "vm0", pages, 1)
			if err := origin.FillRandom(0.95); err != nil {
				t.Fatal(err)
			}
			// The origin keeps a checkpoint as the VM leaves; the VM
			// returns there on the second hop.
			originStore := newStore(t)
			if err := originStore.Save(origin); err != nil {
				t.Fatal(err)
			}
			mid := newVM(t, "vm0", pages, 2)
			_, res1 := migrate(t, origin, mid,
				SourceOptions{Recycle: true, Workers: workers},
				DestOptions{Workers: workers, TrackIncoming: true})
			arrival := ArrivalSums{Table: res1.PageSums, Gens: mid.GenSnapshot()}

			mid.TouchRandomPages(40)

			stop := make(chan struct{})
			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				rng := rand.New(rand.NewSource(int64(workers)))
				buf := make([]byte, vm.PageSize)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if rng.Intn(2) == 0 {
						rng.Read(buf)
					} else {
						origin.ReadPage(rng.Intn(pages), buf)
					}
					mid.WritePage(rng.Intn(pages), buf)
					time.Sleep(50 * time.Microsecond)
				}
			}()
			pause := func() {
				close(stop)
				writer.Wait()
			}

			back := newVM(t, "vm0", pages, 3)
			sm, res2 := migrate(t, mid, back,
				SourceOptions{Recycle: true, Workers: workers, Arrival: arrival,
					Pause: pause, MaxRounds: 6, StopThreshold: 8},
				DestOptions{Store: originStore, Workers: workers, TrackIncoming: true})
			if !mid.MemEqual(back) {
				t.Fatalf("memory differs at page %d", mid.FirstDifference(back))
			}
			if sm.HashAvoidedBytes == 0 {
				t.Error("round one reused no arrival digest")
			}
			if sm.EncodeHashBytes >= mid.MemBytes() {
				t.Errorf("source digested %d bytes, want less than the %d-byte image",
					sm.EncodeHashBytes, mid.MemBytes())
			}
			// Every page-sum frame met a seeded or installed entry.
			if res2.Metrics.ProbeHashBytes != 0 {
				t.Errorf("destination probed %d bytes, want 0 after a seeded bootstrap",
					res2.Metrics.ProbeHashBytes)
			}
			checkTrackedResult(t, back, res2)
		})
	}
}

// TestRoundTwoSumAfterRoundOneFull: pages the checkpoint holds are changed
// before the migration, so round one installs them in full; between the
// rounds the guest writes the checkpoint content back, so round two sends
// checksums — a range-sum frame for two adjacent pages and a page-sum frame
// for a lone one. The destination must check them against the round-one
// installs, not against the bootstrap sums those installs replaced.
func TestRoundTwoSumAfterRoundOneFull(t *testing.T) {
	const pages = 256
	changed := []int{10, 11, 20}
	for _, workers := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(1.0); err != nil {
				t.Fatal(err)
			}
			store := newStore(t)
			if err := store.Save(src); err != nil {
				t.Fatal(err)
			}
			orig := make(map[int][]byte)
			rng := rand.New(rand.NewSource(9))
			for _, p := range changed {
				buf := make([]byte, vm.PageSize)
				src.ReadPage(p, buf)
				orig[p] = buf
				fresh := make([]byte, vm.PageSize)
				rng.Read(fresh)
				src.WritePage(p, fresh)
			}
			restore := func(e Event) {
				if e.Kind == EventRound && e.Round == 1 {
					for _, p := range changed {
						src.WritePage(p, orig[p])
					}
				}
			}
			dst := newVM(t, "vm0", pages, 2)
			sm, res := migrate(t, src, dst,
				SourceOptions{Recycle: true, Workers: workers, OnEvent: restore},
				DestOptions{Store: store, Workers: workers, TrackIncoming: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if sm.Rounds != 2 || sm.PagesFull != len(changed) {
				t.Fatalf("rounds=%d full=%d, want 2 rounds and %d full pages", sm.Rounds, sm.PagesFull, len(changed))
			}
			if got := res.Metrics.PagesReusedFromDisk; got != len(changed) {
				t.Errorf("destination resolved %d pages from disk, want %d", got, len(changed))
			}
			checkTrackedResult(t, dst, res)
		})
	}
}

// TestMergeNeverSeededWithoutInstall: bootstraps that install nothing into
// RAM leave the merge's table empty, so every in-place check digests the
// resident frame.
func TestMergeNeverSeededWithoutInstall(t *testing.T) {
	const pages = 32
	t.Run("union", func(t *testing.T) {
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
			src.WritePage(i, buf)
		}
		dst := newVM(t, "vm0", pages, 2)
		_, res := migrate(t, src, dst, SourceOptions{Recycle: true},
			DestOptions{Store: store, TrackIncoming: true})
		if !res.UnionBootstrap {
			t.Fatal("no union bootstrap")
		}
		if !src.MemEqual(dst) {
			t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
		}
		if got, want := res.Metrics.ProbeHashBytes, int64(res.Metrics.PagesSum)*vm.PageSize; got != want || want == 0 {
			t.Errorf("ProbeHashBytes = %d, want %d (every checked frame digested)", got, want)
		}
		checkTrackedResult(t, dst, res)
	})
	t.Run("cold", func(t *testing.T) {
		src := newVM(t, "vm0", pages, 1)
		if err := src.FillRandom(0.9); err != nil {
			t.Fatal(err)
		}
		dst := newVM(t, "vm0", pages, 2)
		_, res := migrate(t, src, dst, SourceOptions{Recycle: true},
			DestOptions{Store: newStore(t), TrackIncoming: true})
		if res.UsedCheckpoint {
			t.Fatal("cold destination used a checkpoint")
		}
		if res.Metrics.HashAvoidedBytes != dst.MemBytes() || res.Metrics.ProbeHashBytes != 0 {
			t.Errorf("avoided=%d probed=%d, want only the track pass's %d",
				res.Metrics.HashAvoidedBytes, res.Metrics.ProbeHashBytes, dst.MemBytes())
		}
	})
}

// TestArrivalSumsRefused: tables that do not qualify are ignored, and round
// one digests every page as if none had been offered.
func TestArrivalSumsRefused(t *testing.T) {
	const pages = 64
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	incomplete := arrivalOf(src, checksum.MD5)
	incomplete.Table.reset(checksum.MD5, pages)
	sent := NewSumTable()
	aliased := ArrivalSums{Table: sent, Gens: src.GenSnapshot()}
	sent.reset(checksum.MD5, pages)
	for i := 0; i < pages; i++ {
		sent.record(i, src.PageSum(i, checksum.MD5))
	}
	sent.markComplete()
	cases := []struct {
		name    string
		arrival ArrivalSums
		sopts   SourceOptions
	}{
		{"other-algorithm", arrivalOf(src, checksum.MD5), SourceOptions{Alg: checksum.SHA256}},
		{"incomplete", incomplete, SourceOptions{}},
		{"short-generations", ArrivalSums{Table: arrivalOf(src, checksum.MD5).Table, Gens: src.GenSnapshot()[:pages/2]}, SourceOptions{}},
		{"sent-sums-alias", aliased, SourceOptions{SentSums: sent}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := newVM(t, "vm0", pages, 2)
			sopts := tc.sopts
			sopts.Arrival = tc.arrival
			sm, _ := migrate(t, src, dst, sopts, DestOptions{VerifyPayloads: true})
			if !src.MemEqual(dst) {
				t.Fatalf("memory differs at page %d", src.FirstDifference(dst))
			}
			if sm.HashAvoidedBytes != 0 || sm.EncodeHashBytes != src.MemBytes() {
				t.Errorf("avoided=%d encoded=%d, want 0 and the whole %d-byte image",
					sm.HashAvoidedBytes, sm.EncodeHashBytes, src.MemBytes())
			}
		})
	}
}

// TestFailedAttemptTablesIncomplete: a recycled attempt whose bootstrap
// seeded every page, cut mid-stream, must leave both sides' tables
// reporting incomplete — however many pages they had recorded.
func TestFailedAttemptTablesIncomplete(t *testing.T) {
	const pages = 512
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			src := newVM(t, "vm0", pages, 1)
			if err := src.FillRandom(0.95); err != nil {
				t.Fatal(err)
			}
			store := newStore(t)
			if err := store.Save(src); err != nil {
				t.Fatal(err)
			}
			src.TouchRandomPages(200)
			sent := NewSumTable()
			dst := newVM(t, "vm0", pages, 2)
			dres, serr, derr := cutMigration(t, src, dst, 200_000,
				SourceOptions{Recycle: true, Workers: workers, SentSums: sent,
					Arrival: arrivalOf(src, checksum.MD5)},
				DestOptions{Store: store, Workers: workers, TrackIncoming: true, NoSalvage: true})
			if serr == nil || derr == nil {
				t.Fatalf("cut migration succeeded (source=%v dest=%v)", serr, derr)
			}
			if !dres.UsedCheckpoint {
				t.Fatal("destination did not bootstrap")
			}
			if _, ok := dres.PageSums.Sums(); ok {
				t.Error("failed destination table reports complete")
			}
			if _, ok := sent.Sums(); ok {
				t.Error("failed source table reports complete")
			}
		})
	}
}

// TestGoldenStreamArrivalSums: round one drawing digests from an arrival
// table emits the pinned golden stream at every width, and hashes only the
// pages written since the table's snapshot.
func TestGoldenStreamArrivalSums(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		stream, sm, _ := goldenRunWith(t, workers, nil, false, true)
		if got := streamDigest(stream); got != goldenDigest {
			t.Fatalf("workers=%d: stream with arrival sums has digest %s, want the pinned %s",
				workers, got, goldenDigest)
		}
		// mutateGolden rewrites pages 240..439; goldenPause three more
		// before the final round.
		if want := int64(200+3) * vm.PageSize; sm.EncodeHashBytes != want {
			t.Errorf("workers=%d: source digested %d bytes, want %d", workers, sm.EncodeHashBytes, want)
		}
		if want := int64(goldenPages-200) * vm.PageSize; sm.HashAvoidedBytes != want {
			t.Errorf("workers=%d: source reused %d bytes, want %d", workers, sm.HashAvoidedBytes, want)
		}
	}
}

// TestAnnounceBytesAgree: the source counts the announcement it consumed,
// not what its buffered reader pulled off the socket, so both ends report
// the same size — also when the announcement arrives in the same read as
// the hello-ack.
func TestAnnounceBytesAgree(t *testing.T) {
	const pages = 256
	src := newVM(t, "vm0", pages, 1)
	if err := src.FillRandom(0.9); err != nil {
		t.Fatal(err)
	}
	store := newStore(t)
	if err := store.Save(src); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, compact := range []bool{true, false} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			dst := newVM(t, "vm0", pages, 2)
			var (
				wg   sync.WaitGroup
				dres DestResult
				derr error
			)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := ln.Accept()
				if err != nil {
					derr = err
					return
				}
				defer c.Close()
				dres, derr = MigrateDest(context.Background(), c, dst,
					DestOptions{Store: store, NoCompactAnnounce: !compact})
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			sm, serr := MigrateSource(context.Background(), conn, src, SourceOptions{Recycle: true})
			conn.Close()
			wg.Wait()
			if serr != nil || derr != nil {
				t.Fatalf("source: %v, dest: %v", serr, derr)
			}
			if dres.Metrics.AnnounceBytes == 0 || sm.AnnounceBytes != dres.Metrics.AnnounceBytes {
				t.Errorf("announce bytes: source %d, destination %d", sm.AnnounceBytes, dres.Metrics.AnnounceBytes)
			}
		})
	}
}
