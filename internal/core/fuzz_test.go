package core

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// garbageWidths are the merge widths the garbage loops run at: one worker,
// and several racing on the same stream.
var garbageWidths = []int{1, 4}

// TestAcceptNeverPanicsOnGarbage feeds random byte streams to the accept
// path: a hostile or corrupted peer must produce an error, never a panic,
// a runaway allocation, or a leaked merge goroutine.
func TestAcceptNeverPanicsOnGarbage(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(256)
		raw := make([]byte, n)
		rng.Read(raw)
		for _, workers := range garbageWidths {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("input %d (%x), workers=%d: panic %v", i, raw, workers, r)
					}
				}()
				s, err := Accept(context.Background(), readWriter{bytes.NewReader(raw), io.Discard})
				if err != nil {
					return // expected for almost every input
				}
				// An accidentally-valid hello: Run against a VM must still
				// terminate with an error (the stream is exhausted).
				v := newVM(t, s.VMName(), 4, 1)
				if s.MemBytes() == int64(4*4096) {
					if _, err := s.Run(context.Background(), v, DestOptions{Workers: workers}); err == nil {
						t.Errorf("input %d, workers=%d: exhausted stream accepted", i, workers)
					}
				}
			}()
		}
	}
	waitGoroutines(t, base)
}

// TestDestGarbageAfterValidHello fuzzes the merge loop: a well-formed
// hello followed by random bytes must error at every merge width, never
// panic, and leave no merge goroutine behind.
func TestDestGarbageAfterValidHello(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		var stream bytes.Buffer
		h := hello{
			Version:   ProtocolVersion,
			VMName:    "vm0",
			PageSize:  4096,
			PageCount: 4,
			Alg:       1, // MD5
		}
		if err := writeHello(&stream, h); err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, rng.Intn(512))
		rng.Read(junk)
		stream.Write(junk)
		raw := stream.Bytes()

		for _, workers := range garbageWidths {
			dst := newVM(t, "vm0", 4, int64(i))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("iteration %d, workers=%d: panic %v", i, workers, r)
					}
				}()
				conn := readWriter{bytes.NewReader(raw), io.Discard}
				if _, err := MigrateDest(context.Background(), conn, dst, DestOptions{Workers: workers}); err == nil {
					t.Errorf("iteration %d, workers=%d: garbage stream accepted", i, workers)
				}
			}()
		}
	}
	waitGoroutines(t, base)
}

// TestSourceGarbageResponses fuzzes the source against random hello-ack
// and announcement bytes.
func TestSourceGarbageResponses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		junk := make([]byte, rng.Intn(256))
		rng.Read(junk)
		src := newVM(t, "vm0", 4, int64(i))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("iteration %d: panic %v", i, r)
				}
			}()
			// The writer is unbounded (io.Discard); only reads can fail.
			_, _ = MigrateSource(context.Background(), readWriter{bytes.NewReader(junk), io.Discard}, src,
				SourceOptions{Recycle: true})
		}()
	}
}
