package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vecycle/internal/faultfs"
	"vecycle/internal/obs"
)

// The traced run's instruments. Each wraps a seam the program already
// exposes (the store's faultfs.FS, the host's DialFunc) and forwards every
// call unchanged, only timing and counting it.

// ioStats counts store I/O through a timingFS.
type ioStats struct {
	writeBytes, writeNanos atomic.Int64
	readBytes, readNanos   atomic.Int64
	syncs, syncNanos       atomic.Int64
}

func (s *ioStats) reset() {
	for _, c := range []*atomic.Int64{&s.writeBytes, &s.writeNanos, &s.readBytes,
		&s.readNanos, &s.syncs, &s.syncNanos} {
		c.Store(0)
	}
}

// timingFS is a faultfs.FS that times the store's reads, writes and syncs.
type timingFS struct {
	faultfs.FS
	st *ioStats
}

func (t timingFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return timingFile{File: f, st: t.st}, nil
}

func (t timingFS) Create(name string) (faultfs.File, error) { return t.wrap(t.FS.Create(name)) }

func (t timingFS) Open(name string) (faultfs.File, error) { return t.wrap(t.FS.Open(name)) }

func (t timingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	return t.wrap(t.FS.OpenFile(name, flag, perm))
}

func (t timingFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	b, err := t.FS.ReadFile(name)
	t.st.readNanos.Add(int64(time.Since(start)))
	t.st.readBytes.Add(int64(len(b)))
	return b, err
}

// timingFile times one open store file.
type timingFile struct {
	faultfs.File
	st *ioStats
}

func (f timingFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.st.readNanos.Add(int64(time.Since(start)))
	f.st.readBytes.Add(int64(n))
	return n, err
}

func (f timingFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.st.readNanos.Add(int64(time.Since(start)))
	f.st.readBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.st.writeNanos.Add(int64(time.Since(start)))
	f.st.writeBytes.Add(int64(n))
	return n, err
}

func (f timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.st.syncNanos.Add(int64(time.Since(start)))
	f.st.syncs.Add(1)
	return err
}

// wireStats counts the source side of migration connections.
type wireStats struct {
	writeNanos, writeCalls, bytesSent atomic.Int64
	readNanos, bytesReceived          atomic.Int64
}

func (s *wireStats) reset() {
	for _, c := range []*atomic.Int64{&s.writeNanos, &s.writeCalls, &s.bytesSent,
		&s.readNanos, &s.bytesReceived} {
		c.Store(0)
	}
}

// timedConn times a source's migration connection. It embeds the
// *net.TCPConn so the engine's DeadlineConn still finds the deadline
// setters and arms per-I/O idle deadlines.
type timedConn struct {
	*net.TCPConn
	st *wireStats
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.TCPConn.Read(p)
	c.st.readNanos.Add(int64(time.Since(start)))
	c.st.bytesReceived.Add(int64(n))
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.TCPConn.Write(p)
	c.st.writeNanos.Add(int64(time.Since(start)))
	c.st.writeCalls.Add(1)
	c.st.bytesSent.Add(int64(n))
	return n, err
}

// dialTimed is a sched.Host DialFunc that dials TCP as the host would and
// wraps the connection in a timedConn.
func dialTimed(st *wireStats) func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
	return func(ctx context.Context, addr string) (io.ReadWriteCloser, error) {
		d := net.Dialer{Timeout: 10 * time.Second}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		tc := conn.(*net.TCPConn)
		// The host applies TCP_NODELAY to connections it dials itself; a
		// DialFunc bypasses that, so set the same value here.
		if err := tc.SetNoDelay(true); err != nil {
			tc.Close()
			return nil, err
		}
		return &timedConn{TCPConn: tc, st: st}, nil
	}
}

// phases are the protocol phases of one migration, read from the source's
// trace record.
type phases struct {
	// bootstrap is trace start to the announcement received, or to the
	// hello-ack when the destination announces nothing: dial, the
	// destination's checkpoint restore (which it runs before acknowledging
	// the hello) and the announcement transfer.
	bootstrap time.Duration
	// round1 is the end of the bootstrap to the end of round one.
	round1 time.Duration
	// final is pause to resume: the stop-and-copy downtime.
	final time.Duration
	// done is when the source saw the destination's final ack.
	done time.Time
}

// sourcePhases extracts phases from a source trace record; false when the
// record lacks the hello, round-one or done event.
func sourcePhases(m obs.Migration) (phases, bool) {
	var hello, announce, round1, pause, resume, done time.Time
	for _, e := range m.Events {
		switch {
		case e.Kind == "hello" && hello.IsZero():
			hello = e.T
		case e.Kind == "announce" && announce.IsZero():
			announce = e.T
		case e.Kind == "round" && e.Round == 1 && round1.IsZero():
			round1 = e.T
		case e.Kind == "pause" && pause.IsZero():
			pause = e.T
		case e.Kind == "resume" && resume.IsZero():
			resume = e.T
		case e.Kind == "done":
			done = e.T
		}
	}
	if hello.IsZero() || round1.IsZero() || done.IsZero() {
		return phases{}, false
	}
	boot := hello
	if !announce.IsZero() {
		boot = announce
	}
	p := phases{bootstrap: boot.Sub(m.Start), round1: round1.Sub(boot), done: done}
	if !pause.IsZero() && !resume.IsZero() {
		p.final = resume.Sub(pause)
	}
	return p, true
}

// doneAt is the time of a trace record's last done event.
func doneAt(m obs.Migration) (time.Time, bool) {
	for i := len(m.Events) - 1; i >= 0; i-- {
		if m.Events[i].Kind == "done" {
			return m.Events[i].T, true
		}
	}
	return time.Time{}, false
}

// latestRecord finds the newest trace record (finished or in flight) of
// vmName in role on log.
func latestRecord(log *obs.TraceLog, role, vmName string) (obs.Migration, bool) {
	var best obs.Migration
	found := false
	for _, list := range [][]obs.Migration{log.Recent(), log.Active()} {
		for _, m := range list {
			if m.Role == role && m.VM == vmName && (!found || m.ID > best.ID) {
				best, found = m, true
			}
		}
	}
	return best, found
}

// promSnap is a registry's series values by their exposition name
// (name{labels}).
type promSnap map[string]float64

// snapshot reads every series of reg.
func snapshot(reg *obs.Registry) promSnap {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	s := promSnap{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s
}

// inFamily reports whether series key k belongs to family.
func inFamily(k, family string) bool {
	return k == family || strings.HasPrefix(k, family+"{")
}

// sum totals the series of family whose labels contain label ("" for all).
func (s promSnap) sum(family, label string) float64 {
	var t float64
	for k, v := range s {
		if inFamily(k, family) && strings.Contains(k, label) {
			t += v
		}
	}
	return t
}

// regDelta sums family's increase across snapshot pairs.
func regDelta(before, after []promSnap, family, label string) float64 {
	var d float64
	for i := range after {
		d += after[i].sum(family, label) - before[i].sum(family, label)
	}
	return d
}

// grown lists family's series that increased across snapshot pairs, each
// as "name{labels} +increase", in name order.
func grown(before, after []promSnap, family string) []string {
	var out []string
	for i := range after {
		for k, v := range after[i] {
			if inFamily(k, family) && v > before[i][k] {
				out = append(out, fmt.Sprintf("%s +%g", k, v-before[i][k]))
			}
		}
	}
	sort.Strings(out)
	return out
}
