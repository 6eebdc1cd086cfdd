package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"vecycle/internal/core"
	"vecycle/internal/faultfs"
	"vecycle/internal/obs"
)

func TestSourcePhases(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rec := obs.Migration{
		ID: 7, Role: "source", VM: "vm", Start: t0,
		Events: []obs.Event{
			{T: at(30), Kind: "hello"},
			{T: at(45), Kind: "announce", Bytes: 4096},
			{T: at(300), Kind: "round", Round: 1},
			{T: at(301), Kind: "pause", Round: 2},
			{T: at(302), Kind: "round", Round: 2},
			{T: at(305), Kind: "resume"},
			{T: at(306), Kind: "done"},
		},
	}
	p, ok := sourcePhases(rec)
	if !ok {
		t.Fatal("phases not found")
	}
	want := phases{bootstrap: 45 * time.Millisecond, round1: 255 * time.Millisecond,
		final: 4 * time.Millisecond, done: at(306)}
	if p != want {
		t.Errorf("phases = %+v, want %+v", p, want)
	}

	// Without an announcement (a cold destination) the bootstrap ends and
	// round one starts at the hello.
	cold := rec
	cold.Events = []obs.Event{rec.Events[0], rec.Events[2], rec.Events[6]}
	p, ok = sourcePhases(cold)
	if !ok || p.bootstrap != 30*time.Millisecond || p.round1 != 270*time.Millisecond || p.final != 0 {
		t.Errorf("cold phases = %+v %v", p, ok)
	}

	if _, ok := sourcePhases(obs.Migration{Start: t0, Events: rec.Events[:2]}); ok {
		t.Error("record without round one or done reported phases")
	}
	if d, ok := doneAt(rec); !ok || !d.Equal(at(306)) {
		t.Errorf("doneAt = %v %v", d, ok)
	}
}

func TestLatestRecord(t *testing.T) {
	log := obs.NewTraceLog(0)
	log.Begin("h", "source", "vm", "").Finish(nil)
	log.Begin("h", "dest", "vm", "").Finish(nil)
	open := log.Begin("h", "dest", "vm", "")
	open.Event(obs.Event{Kind: "done"})
	m, ok := latestRecord(log, "dest", "vm")
	if !ok || m.ID != 3 || len(m.Events) != 1 {
		t.Errorf("latest in-flight dest record = %+v %v, want ID 3", m, ok)
	}
	if m, ok := latestRecord(log, "source", "vm"); !ok || m.ID != 1 {
		t.Errorf("latest source record = %+v %v, want ID 1", m, ok)
	}
	if _, ok := latestRecord(log, "source", "other"); ok {
		t.Error("found a record of an unknown VM")
	}
}

func TestRegistryDelta(t *testing.T) {
	reg := obs.NewRegistry()
	hash := reg.CounterVec("vecycle_hash_bytes_total", "h", "host", "stage")
	hash.With("a", "track").Add(5)
	before := []promSnap{snapshot(reg)}
	hash.With("a", "track").Add(10)
	hash.With("a", "save_keys").Add(100)
	after := []promSnap{snapshot(reg)}
	if got := regDelta(before, after, "vecycle_hash_bytes_total", `stage="track"`); got != 10 {
		t.Errorf("track delta = %v, want 10", got)
	}
	if got := regDelta(before, after, "vecycle_hash_bytes_total", ""); got != 110 {
		t.Errorf("total delta = %v, want 110", got)
	}
	if got := regDelta(before, after, "vecycle_hash", ""); got != 0 {
		t.Errorf("a family-name prefix matched: %v", got)
	}
	want := []string{
		`vecycle_hash_bytes_total{host="a",stage="save_keys"} +100`,
		`vecycle_hash_bytes_total{host="a",stage="track"} +10`,
	}
	if got := grown(before, after, "vecycle_hash_bytes_total"); !slices.Equal(got, want) {
		t.Errorf("grown = %q, want %q", got, want)
	}
	if got := grown(after, after, "vecycle_hash_bytes_total"); len(got) != 0 {
		t.Errorf("grown with no change = %q", got)
	}
}

// TestTimingFSForwards checks that the timing filesystem passes writes,
// syncs, renames and positioned reads through unchanged while counting
// them.
func TestTimingFSForwards(t *testing.T) {
	var st ioStats
	fsys := timingFS{FS: faultfs.OS, st: &st}
	dir := t.TempDir()
	f, err := fsys.Create(filepath.Join(dir, "a.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello, store")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	g, err := fsys.Open(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, 5)
	if n, err := g.ReadAt(buf, 7); err != nil || string(buf[:n]) != "store" {
		t.Fatalf("ReadAt = %q %v", buf[:n], err)
	}
	if st.writeBytes.Load() != 12 || st.syncs.Load() != 1 || st.readBytes.Load() != 5 {
		t.Errorf("counted write %d sync %d read %d, want 12 1 5",
			st.writeBytes.Load(), st.syncs.Load(), st.readBytes.Load())
	}
	if _, err := fsys.Open(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Errorf("open of a missing file: %v", err)
	}
}

// TestTimedConnKeepsDeadlines checks that the engine's idle deadlines still
// reach the TCP connection through the timing wrapper.
func TestTimedConnKeepsDeadlines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
		close(accepted)
	}()
	var st wireStats
	conn, err := dialTimed(&st)(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if peer := <-accepted; peer != nil {
		defer peer.Close()
	}
	dc := core.NewDeadlineConn(conn, 50*time.Millisecond)
	start := time.Now()
	_, err = dc.Read(make([]byte, 1))
	if err == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("read on a silent peer returned %v after %v; want an idle timeout", err, time.Since(start))
	}
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if st.writeCalls.Load() != 1 || st.bytesSent.Load() != 1 {
		t.Errorf("counted %d writes, %d bytes; want 1 and 1", st.writeCalls.Load(), st.bytesSent.Load())
	}
}
