package core

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"vecycle/internal/vm"
)

// scriptedPeer builds the exact byte sequence a baseline destination sends a
// source: a positive hello-ack (no checkpoint, so no announcement) and the
// final ack. Replaying it from memory lets a test run the full source engine
// — pipeline, compression, round loop — with no peer goroutine, so memory
// measurements see only the source's own allocations.
func scriptedPeer(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHelloAck(&buf, helloAck{OK: true}); err != nil {
		t.Fatal(err)
	}
	if err := writeMsgType(&buf, msgAck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// migrationAllocBytes reports the average bytes allocated by one compressed
// source migration at the given pipeline width, after warming the
// process-wide pools.
func migrationAllocBytes(t *testing.T, v *vm.VM, script []byte, workers int) uint64 {
	t.Helper()
	// One P for the whole measurement: sync.Pool keeps a per-P private
	// slot the other Ps cannot see, so on several Ps a pooled object can
	// miss and be rebuilt at random, whatever the width under test.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		conn := readWriter{bytes.NewReader(script), io.Discard}
		if _, err := MigrateSource(context.Background(), conn, v, SourceOptions{
			Compress: true,
			Workers:  workers,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.GC()
	// A collection inside the measured loop empties the sync.Pools, and
	// their refills would count as allocations: keep the GC off until the
	// loop is measured.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const iters = 5
	for i := 0; i < iters; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / iters
}

// TestPipelineAllocCeiling pins the fix for the encoder-pool allocation
// regression: runSourcePipeline used to build `workers` fresh
// sourceEncoders — each owning a new deflate window of several hundred
// KiB — every round, so a 4-worker migration allocated ~3× what a 1-worker
// one did. Encoders are now created once per migration and their deflate
// state is pooled process-wide; steady-state allocation must stay within a
// fixed ceiling and must not scale with the worker count.
func TestPipelineAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation skews allocation accounting")
	}
	const pages = 512 // 2 MiB guest, compressible: the deflate path stays hot
	v, err := vm.New(vm.Config{Name: "alloc-vm", MemBytes: pages * vm.PageSize, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.FillCompressible(1.0); err != nil {
		t.Fatal(err)
	}
	script := scriptedPeer(t)

	// Every width BenchmarkFirstRound runs at: steady-state allocation must
	// stay under a fixed ceiling and must not scale with the worker count.
	widths := []int{1, 2, 4, 8}
	got := make(map[int]uint64, len(widths))
	for _, w := range widths {
		got[w] = migrationAllocBytes(t, v, script, w)
		t.Logf("steady-state alloc per migration: workers=%d %d B", w, got[w])
	}

	// A single deflate window alone is ~600 KiB; the pre-fix 4-worker
	// figure was several MiB per migration. Steady state with pooled
	// encoders needs only batch bookkeeping and goroutine machinery.
	const ceiling = 1 << 20 // 1 MiB
	one := got[1]
	for _, w := range widths[1:] {
		if got[w] > ceiling {
			t.Errorf("workers=%d allocates %d B per migration, want <= %d", w, got[w], ceiling)
		}
		// Width must not multiply allocations: allow generous slack for
		// scheduling noise, but not the ~3x of the per-round rebuild.
		if one > 0 && got[w] > one*2+256<<10 {
			t.Errorf("allocation scales with workers: %d B (w=1) -> %d B (w=%d)", one, got[w], w)
		}
	}
}

// fullMigrationAllocBytes measures the steady-state allocation of one
// complete migration — source and destination, over net.Pipe — at the given
// pipeline width, after warming the process-wide pools.
func fullMigrationAllocBytes(t *testing.T, src, dst *vm.VM, workers int) uint64 {
	t.Helper()
	// One P and no GC inside the measured loop, as in migrationAllocBytes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		a, c := net.Pipe()
		var wg sync.WaitGroup
		var derr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, derr = MigrateDest(context.Background(), c, dst, DestOptions{Workers: workers})
		}()
		_, serr := MigrateSource(context.Background(), a, src, SourceOptions{
			Compress: true,
			Workers:  workers,
		})
		wg.Wait()
		a.Close()
		c.Close()
		if serr != nil || derr != nil {
			t.Fatalf("source: %v, dest: %v", serr, derr)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const iters = 5
	for i := 0; i < iters; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / iters
}

// TestMigrationAllocFlatness pins the end-to-end allocation curve across
// pipeline widths: with wire buffers and destination install scratch pooled
// process-wide, a w=8 migration must allocate within 1.5x of a w=1 one
// (plus fixed slack for goroutine machinery). Before pooling, each install
// worker grew a private 1 MiB span buffer per migration, so w=8 sat at ~6x.
func TestMigrationAllocFlatness(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation skews allocation accounting")
	}
	const pages = 512 // 2 MiB guest, half random: both encoder branches hot
	newGuest := func(name string, seed int64) *vm.VM {
		v, err := vm.New(vm.Config{Name: name, MemBytes: pages * vm.PageSize, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.FillRandom(1.0); err != nil {
			t.Fatal(err)
		}
		if err := v.FillCompressible(0.5); err != nil {
			t.Fatal(err)
		}
		return v
	}
	src := newGuest("flat-src", 17)
	dst := newGuest("flat-src", 18) // same name: a migration replaces the content

	one := fullMigrationAllocBytes(t, src, dst, 1)
	eight := fullMigrationAllocBytes(t, src, dst, 8)
	t.Logf("full-migration alloc: workers=1 %d B, workers=8 %d B", one, eight)
	if one > 0 && eight > one*3/2+256<<10 {
		t.Errorf("allocation scales with workers: %d B (w=1) -> %d B (w=8), want <= 1.5x + 256 KiB",
			one, eight)
	}
}

// TestBatchPoolBound pins putBatch's retention cap: a batch whose frame
// buffer ballooned past maxPooledBatchBytes returns to the pool with the
// buffer dropped, while ordinarily sized buffers keep their capacity for
// reuse.
func TestBatchPoolBound(t *testing.T) {
	big := batchPool.Get().(*pageBatch)
	big.buf.Grow(maxPooledBatchBytes + 1)
	putBatch(big)
	if c := big.buf.Cap(); c != 0 {
		t.Errorf("oversized buffer retained %d B after putBatch, want dropped", c)
	}

	ok := batchPool.Get().(*pageBatch)
	ok.buf.Grow(maxPooledBatchBytes / 2)
	want := ok.buf.Cap()
	putBatch(ok)
	if c := ok.buf.Cap(); c != want {
		t.Errorf("in-bound buffer capacity %d after putBatch, want %d retained", c, want)
	}
	if len(ok.pages) != 0 || len(ok.data) != 0 || ok.buf.Len() != 0 {
		t.Error("putBatch left residual batch state")
	}
}
