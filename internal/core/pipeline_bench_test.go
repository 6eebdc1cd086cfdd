package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"vecycle/internal/checkpoint"
	"vecycle/internal/checksum"
	"vecycle/internal/vm"
)

const benchPages = 4096 // 16 MiB guest

func benchVM(b *testing.B, seed int64) *vm.VM {
	b.Helper()
	v, err := vm.New(vm.Config{Name: "bench-vm", MemBytes: benchPages * vm.PageSize, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	// Half compressible, half random: both encoder branches stay hot.
	if err := v.FillRandom(1.0); err != nil {
		b.Fatal(err)
	}
	if err := v.FillCompressible(0.5); err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkFirstRound measures a cold first-round migration (no checkpoint
// at the destination, every page crosses the wire, compression on) at
// fixed pipeline widths {1, 2, 4, 8} — tools/benchgate reads exactly these
// series out of BENCH_migration.json and fails CI on negative scaling. On a
// multi-core host workers=8 should beat workers=1 by ~NumCPU/2 or better;
// on a single-core runner the widths converge but must not regress.
func BenchmarkFirstRound(b *testing.B) {
	src := benchVM(b, 7)
	dst := benchVM(b, 8)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(benchPages * vm.PageSize)
			for i := 0; i < b.N; i++ {
				a, c := net.Pipe()
				var wg sync.WaitGroup
				var serr, derr error
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, derr = MigrateDest(context.Background(), c, dst, DestOptions{Workers: workers})
				}()
				_, serr = MigrateSource(context.Background(), a, src, SourceOptions{
					Compress: true,
					Workers:  workers,
				})
				wg.Wait()
				a.Close()
				c.Close()
				if serr != nil || derr != nil {
					b.Fatalf("source: %v, dest: %v", serr, derr)
				}
			}
		})
	}
}

// BenchmarkTrackIncoming is BenchmarkFirstRound with destination tracking
// on — the ping-pong preparation path (§3.2). Before the hash-once
// lifecycle the destination paid a full-image digest pass at round end on
// top of the migration itself; install-time sum recording shrank that pass
// to only unobserved pages, which in a clean run is none. tools/benchgate
// gates these series against the committed recording, keeping the
// tracked-migration overhead from creeping back.
func BenchmarkTrackIncoming(b *testing.B) {
	src := benchVM(b, 7)
	dst := benchVM(b, 8)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(benchPages * vm.PageSize)
			for i := 0; i < b.N; i++ {
				a, c := net.Pipe()
				var wg sync.WaitGroup
				var serr, derr error
				var res DestResult
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, derr = MigrateDest(context.Background(), c, dst, DestOptions{
						Workers:       workers,
						TrackIncoming: true,
					})
				}()
				_, serr = MigrateSource(context.Background(), a, src, SourceOptions{
					Compress: true,
					Workers:  workers,
				})
				wg.Wait()
				a.Close()
				c.Close()
				if serr != nil || derr != nil {
					b.Fatalf("source: %v, dest: %v", serr, derr)
				}
				if res.Metrics.HashBytes != 0 {
					b.Fatalf("round-end pass digested %d bytes; install-time sums were not recycled", res.Metrics.HashBytes)
				}
			}
		})
	}
}

// BenchmarkRecycledReturn measures the recycled return migration at the
// derived pipeline width, over net.Pipe: a 32 MiB guest, 95% random,
// with 5% of its pages rewritten since it arrived on the source. The
// baseline arm sends everything to an empty destination. The recycled arm
// returns to a destination holding the guest's arrival-time checkpoint,
// restores it (inside the timed window), and runs with the source's
// arrival table, so both hash-once halves are in the measured path: round
// one digests only the churned pages, and the destination checks its
// checksum frames against the sums its bootstrap installed.
// tools/benchgate requires the recycled arm to run at least as fast as the
// baseline arm, and gates both against the committed recording.
func BenchmarkRecycledReturn(b *testing.B) {
	const pages = 8192 // 32 MiB
	src, err := vm.New(vm.Config{Name: "return-vm", MemBytes: pages * vm.PageSize, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	if err := src.FillRandom(0.95); err != nil {
		b.Fatal(err)
	}
	// The destination kept a checkpoint as the guest left it, and the
	// source recorded the same state's sums as the guest arrived.
	store, err := checkpoint.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Save(src); err != nil {
		b.Fatal(err)
	}
	arrival := arrivalOf(src, checksum.MD5)
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, vm.PageSize)
	for _, p := range rng.Perm(pages)[:pages/20] {
		rng.Read(buf)
		src.WritePage(p, buf)
	}
	dst, err := vm.New(vm.Config{Name: "return-vm", MemBytes: pages * vm.PageSize, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name  string
		sopts SourceOptions
		dopts DestOptions
	}{
		{"baseline", SourceOptions{}, DestOptions{TrackIncoming: true}},
		{"recycled", SourceOptions{Recycle: true, Arrival: arrival},
			DestOptions{Store: store, TrackIncoming: true}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.SetBytes(pages * vm.PageSize)
			for i := 0; i < b.N; i++ {
				a, c := net.Pipe()
				var wg sync.WaitGroup
				var derr error
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, derr = MigrateDest(context.Background(), c, dst, arm.dopts)
				}()
				_, serr := MigrateSource(context.Background(), a, src, arm.sopts)
				wg.Wait()
				a.Close()
				c.Close()
				if serr != nil || derr != nil {
					b.Fatalf("source: %v, dest: %v", serr, derr)
				}
			}
		})
	}
}

// BenchmarkFirstRoundTCP is BenchmarkFirstRound over a real 127.0.0.1 TCP
// connection instead of net.Pipe: syscalls, kernel socket buffers, and
// segmentation are in the measured path, so the batch-sized wire buffers
// show up here as fewer write(2) calls per round. Not gated by
// tools/benchgate (loopback throughput varies more across kernels than the
// in-process pipe), but recorded alongside it for comparison.
func BenchmarkFirstRoundTCP(b *testing.B) {
	src := benchVM(b, 7)
	dst := benchVM(b, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(benchPages * vm.PageSize)
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				var derr error
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, err := ln.Accept()
					if err != nil {
						derr = err
						return
					}
					defer c.Close()
					c.(*net.TCPConn).SetNoDelay(true)
					_, derr = MigrateDest(context.Background(), c, dst, DestOptions{Workers: workers})
				}()
				a, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				a.(*net.TCPConn).SetNoDelay(true)
				_, serr := MigrateSource(context.Background(), a, src, SourceOptions{
					Compress: true,
					Workers:  workers,
				})
				wg.Wait()
				a.Close()
				if serr != nil || derr != nil {
					b.Fatalf("source: %v, dest: %v", serr, derr)
				}
			}
		})
	}
}

// BenchmarkMergeLoop isolates the destination: one migration's inbound
// byte stream is recorded once, then replayed from memory, so the numbers
// reflect decode + verify + install throughput alone.
func BenchmarkMergeLoop(b *testing.B) {
	src := benchVM(b, 7)
	rec := recordStream(b, src)
	dst := benchVM(b, 8)
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(benchPages * vm.PageSize)
			for i := 0; i < b.N; i++ {
				conn := readWriter{bytes.NewReader(rec), io.Discard}
				if _, err := MigrateDest(context.Background(), conn, dst, DestOptions{
					Workers:        workers,
					VerifyPayloads: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDestInstall isolates the destination's memory-install primitive:
// the per-page InstallPage loop the merge path used for every frame versus
// one vectorized InstallRange call per 256-page span — the copy a decoded
// range-full frame lands with.
func BenchmarkDestInstall(b *testing.B) {
	v := benchVM(b, 12)
	data := make([]byte, batchPages*vm.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	b.Run("per-page", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			for p := 0; p < batchPages; p++ {
				v.InstallPage(p, data[p*vm.PageSize:(p+1)*vm.PageSize])
			}
		}
	})
	b.Run("range", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			v.InstallRange(0, data)
		}
	})
}

// recordStream runs one real migration and captures every byte the
// destination read.
func recordStream(b *testing.B, src *vm.VM) []byte {
	b.Helper()
	dst := benchVM(b, 9)
	a, c := net.Pipe()
	defer a.Close()
	defer c.Close()
	rc := &recordConn{Conn: a}
	var wg sync.WaitGroup
	var derr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, derr = MigrateDest(context.Background(), c, dst, DestOptions{})
	}()
	if _, err := MigrateSource(context.Background(), rc, src, SourceOptions{Compress: true}); err != nil {
		b.Fatal(err)
	}
	wg.Wait()
	if derr != nil {
		b.Fatal(derr)
	}
	return rc.rec.Bytes()
}
