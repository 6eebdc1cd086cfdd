package sched

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/vm"
)

// waitResident blocks until the named VM is resident on h and returns it.
func waitResident(t *testing.T, h *Host, name string) *vm.VM {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := h.VM(name); ok {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never arrived on %s", name, h.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// hashStage reports whether h exported a vecycle_hash_bytes_total series
// for stage.
func hashStage(t *testing.T, h *Host, stage string) bool {
	t.Helper()
	return strings.Contains(scrape(t, h),
		fmt.Sprintf(`vecycle_hash_bytes_total{host=%q,stage=%q}`, h.Name(), stage))
}

// TestReturnReusesArrivalSums: a VM ping-pongs between two hosts. On the
// return leg the source hashes only what the guest wrote since it arrived
// — before departure and, through a concurrent writer, during round one —
// and the destination checks its checksum frames against the sums its
// bootstrap installed. Memory must match at every pipeline width: hosts
// take the width from GOMAXPROCS, so each run pins it (0 keeps the
// process's own).
func TestReturnReusesArrivalSums(t *testing.T) {
	const pages = 512
	for _, workers := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if workers > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			}
			alpha, beta := newHost(t, "alpha"), newHost(t, "beta")
			addrA, addrB := listen(t, alpha), listen(t, beta)
			v := newGuest(t, "vm0", pages)
			if err := v.FillRandom(0.95); err != nil {
				t.Fatal(err)
			}
			alpha.AddVM(v)
			opts := MigrateOptions{Recycle: true, KeepCheckpoint: true}
			if _, err := alpha.MigrateTo(context.Background(), addrB, "vm0", opts); err != nil {
				t.Fatal(err)
			}
			vb := waitResident(t, beta, "vm0")
			vb.TouchRandomPages(20)

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
					rng.Read(buf)
					vb.WritePage(rng.Intn(pages), buf)
					time.Sleep(50 * time.Microsecond)
				}
			}()
			var want []uint64
			ret := opts
			ret.Pause = func() {
				close(stop)
				writer.Wait()
				want = vb.Fingerprint64()
			}
			m, err := beta.MigrateTo(context.Background(), addrA, "vm0", ret)
			if err != nil {
				t.Fatal(err)
			}
			landed := waitResident(t, alpha, "vm0")
			fingerprintEqual(t, want, landed)
			if m.HashAvoidedBytes == 0 {
				t.Error("return leg reused no arrival digest")
			}
			if m.EncodeHashBytes >= vb.MemBytes() {
				t.Errorf("return leg digested %d bytes, want less than the %d-byte image",
					m.EncodeHashBytes, vb.MemBytes())
			}
			if !hashStage(t, beta, "encode") {
				t.Error("source host exported no encode hash bytes")
			}
			if hashStage(t, alpha, "probe") {
				t.Error("destination probed resident frames despite a seeded bootstrap")
			}
		})
	}
}

// TestArrivalSumsNotReused: the arrival table is bound to the arrived VM
// and to the first attempt. A same-name VM placed by AddVM, and a retry
// after a failed attempt, hash every page.
func TestArrivalSumsNotReused(t *testing.T) {
	const pages = 256
	// arrive moves a fresh guest from a helper host onto h and returns
	// h's copy.
	arrive := func(t *testing.T, h *Host, addr string) *vm.VM {
		t.Helper()
		from := newHost(t, "origin")
		v := newGuest(t, "vm0", pages)
		if err := v.FillRandom(0.95); err != nil {
			t.Fatal(err)
		}
		from.AddVM(v)
		if _, err := from.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{Recycle: true}); err != nil {
			t.Fatal(err)
		}
		return waitResident(t, h, "vm0")
	}

	t.Run("control", func(t *testing.T) {
		beta := newHost(t, "beta")
		arrived := arrive(t, beta, listen(t, beta))
		gamma := newHost(t, "gamma")
		m, err := beta.MigrateTo(context.Background(), listen(t, gamma), "vm0", MigrateOptions{Recycle: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.HashAvoidedBytes != arrived.MemBytes() || m.EncodeHashBytes != 0 {
			t.Errorf("avoided=%d encoded=%d, want the whole %d-byte image reused",
				m.HashAvoidedBytes, m.EncodeHashBytes, arrived.MemBytes())
		}
	})

	t.Run("replaced-by-AddVM", func(t *testing.T) {
		beta := newHost(t, "beta")
		arrived := arrive(t, beta, listen(t, beta))
		replacement := newGuest(t, "vm0", pages)
		buf := make([]byte, vm.PageSize)
		for i := 0; i < pages; i++ {
			arrived.ReadPage(i, buf)
			replacement.WritePage(i, buf)
		}
		beta.AddVM(replacement)
		gamma := newHost(t, "gamma")
		m, err := beta.MigrateTo(context.Background(), listen(t, gamma), "vm0", MigrateOptions{Recycle: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.HashAvoidedBytes != 0 || m.EncodeHashBytes != replacement.MemBytes() {
			t.Errorf("avoided=%d encoded=%d, want 0 and the whole %d-byte image",
				m.HashAvoidedBytes, m.EncodeHashBytes, replacement.MemBytes())
		}
	})

	t.Run("retry", func(t *testing.T) {
		beta := newHost(t, "beta")
		arrive(t, beta, listen(t, beta))
		gamma := newHost(t, "gamma")
		addr := listen(t, gamma)
		var dials atomic.Int64
		beta.DialFunc = func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			if dials.Add(1) == 1 {
				return core.NewFaultConn(conn, core.FaultConfig{ResetAfterBytes: 20_000}), nil
			}
			return conn, nil
		}
		var attempts []core.Metrics
		m, err := beta.MigrateTo(context.Background(), addr, "vm0", MigrateOptions{
			Recycle:   true,
			Retry:     RetryPolicy{Attempts: 3, Backoff: 100 * time.Millisecond},
			OnAttempt: func(_ int, m core.Metrics, _ error) { attempts = append(attempts, m) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(attempts) != 2 {
			t.Fatalf("%d attempts, want 2 (reset + retry)", len(attempts))
		}
		if m.HashAvoidedBytes != 0 || m.EncodeHashBytes != int64(pages)*vm.PageSize {
			t.Errorf("retry: avoided=%d encoded=%d, want 0 and the whole image",
				m.HashAvoidedBytes, m.EncodeHashBytes)
		}
		waitResident(t, gamma, "vm0")
	})
}
