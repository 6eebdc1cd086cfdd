package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vecycle/internal/checkpoint"
	"vecycle/internal/core"
	"vecycle/internal/faultfs"
	"vecycle/internal/sched"
	"vecycle/internal/vm"
)

// vmName is the migrating guest's name in every workload.
const vmName = "vm"

// fillFrac is the paper's §4.4 guest preparation: 95% of memory random,
// the rest zero.
const fillFrac = 0.95

// arrivalTimeout bounds the wait for OnArrival after MigrateTo returned.
const arrivalTimeout = time.Minute

// arrival is one OnArrival callback.
type arrival struct {
	v    *vm.VM
	res  core.DestResult
	at   time.Time
	stat cpuStat // readCPUStat() at the callback
}

// instruments are the traced run's timing seams; nil when untraced.
type instruments struct {
	io   ioStats
	wire wireStats
	cpu  *cpuBuckets
}

// bench is one set-up environment: the hosts, stores and guests a
// workload's legs run against, under a private directory.
type bench struct {
	cfg      config
	dir      string
	fs       faultfs.FS // the stores' filesystem
	inst     *instruments
	rng      *rand.Rand
	arrivals chan arrival
	stop     chan struct{}
	hosts    []*sched.Host
	stores   []*checkpoint.Store
	// seq numbers the hosts a bench creates, so names stay unique.
	seq int
}

func newBench(cfg config, dir string, traced bool) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench dir: %w", err)
	}
	b := &bench{
		cfg:      cfg,
		dir:      dir,
		fs:       faultfs.OS,
		rng:      rand.New(rand.NewSource(cfg.seed)),
		arrivals: make(chan arrival, 1),
		stop:     make(chan struct{}),
	}
	if traced {
		b.inst = &instruments{cpu: newCPUBuckets()}
	}
	return b, nil
}

// close stops every host and deletes the bench's directory.
func (b *bench) close() error {
	close(b.stop)
	var errs []error
	for _, h := range b.hosts {
		errs = append(errs, h.Close())
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}

// openStore opens a checkpoint store under the bench directory, through a
// timing filesystem when traced.
func (b *bench) openStore(name string) (*checkpoint.Store, error) {
	fsys := b.fs
	if b.inst != nil {
		fsys = timingFS{FS: fsys, st: &b.inst.io}
	}
	st, err := checkpoint.NewStoreFS(filepath.Join(b.dir, name), fsys)
	if err != nil {
		return nil, err
	}
	b.stores = append(b.stores, st)
	return st, nil
}

// newHost starts a listening host on st with the options a CLI user gets.
// keep registers it for close; a host the caller closes itself is not.
func (b *bench) newHost(st *checkpoint.Store, keep bool) (*sched.Host, string, error) {
	b.seq++
	h, err := sched.NewHostWithStore(fmt.Sprintf("host-%d", b.seq), st)
	if err != nil {
		return nil, "", err
	}
	h.OnArrival = func(v *vm.VM, res core.DestResult) {
		a := arrival{v: v, res: res, at: time.Now(), stat: readCPUStat()}
		select {
		case b.arrivals <- a:
		case <-b.stop:
		}
	}
	if b.inst != nil {
		h.DialFunc = dialTimed(&b.inst.wire)
	}
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		h.Close()
		return nil, "", err
	}
	if keep {
		b.hosts = append(b.hosts, h)
	}
	return h, addr, nil
}

// newGuest makes a guest filled as in the paper: 95% random pages.
func (b *bench) newGuest(seed int64) (*vm.VM, error) {
	g, err := vm.New(vm.Config{Name: vmName, MemBytes: b.cfg.memBytes, Seed: seed})
	if err != nil {
		return nil, err
	}
	return g, g.FillRandom(fillFrac)
}

// leg is one migration ready to run.
type leg struct {
	src, dst *sched.Host
	addr     string
	// guest is the source's VM; after the leg the destination's copy must
	// equal it byte for byte.
	guest *vm.VM
}

// legResult is what one migration measured.
type legResult struct {
	// ready and done are the wall-clock windows less their stolen share
	// (lessSteal); readyWall and doneWall are the raw windows.
	ready, done, readyWall, doneWall time.Duration
	cpu                              time.Duration
	wireBytes                        int64
	arrived                          *vm.VM
	// layer holds the traced run's per-layer values for this leg.
	layer map[string]float64
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the machine-wide busy and steal time from the first line of
// /proc/stat, in ticks summed over the vCPUs.
type cpuStat struct {
	busy, steal int64
}

// readCPUStat reads /proc/stat; zero where it is missing or unreadable.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var t [9]int64
	for i := 1; i < 9; i++ {
		if t[i], err = strconv.ParseInt(f[i], 10, 64); err != nil {
			return cpuStat{}
		}
	}
	// user, nice, system, irq and softirq; idle and iowait are not busy.
	return cpuStat{busy: t[1] + t[2] + t[3] + t[6] + t[7], steal: t[8]}
}

// stolenShare is the share of the vCPUs' runnable time between a and b
// that the hypervisor gave to other guests: steal / (steal + busy). A vCPU
// accrues steal only while it has work, and idle vCPUs add to neither
// count, so the share is that of a busy vCPU whether the program kept one
// or all of them busy, and load from other processes adds to both counts
// alike.
func stolenShare(a, b cpuStat) float64 {
	steal, busy := b.steal-a.steal, b.busy-a.busy
	if steal <= 0 || busy < 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}

// lessSteal is a wall-clock window less its stolen share. On a shared
// virtual machine steal swings the wall clock by tens of percent from
// minute to minute; it is not the program's time, so the timed windows
// leave it out. The window is taken as runnable throughout, so time the
// program spends blocked on a device is scaled down too. On bare metal
// steal is zero and the window is the wall clock.
func lessSteal(wall time.Duration, a, b cpuStat) time.Duration {
	return time.Duration(float64(wall) * (1 - stolenShare(a, b)))
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// run migrates l's guest and checks the arrival, outside the timed window,
// against the source's paused state: one attempt, equal memory, and no
// degradation recorded on either host. traced adds the per-layer figures;
// it needs the bench's instruments.
func (b *bench) run(ctx context.Context, l *leg, traced bool) (legResult, error) {
	before := b.snap(l)
	// Collect the previous leg's garbage and hand its memory back to the OS
	// now, so every window pays only for the garbage its own migration makes
	// and faults in its guest memory from the same starting point.
	debug.FreeOSMemory()
	var prof bytes.Buffer
	var alloc0, alloc1 uint64
	if traced {
		b.inst.io.reset()
		b.inst.wire.reset()
		alloc0 = totalAlloc()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return legResult{}, fmt.Errorf("cpu profile: %w", err)
		}
	}

	attempts := 0
	stat0 := readCPUStat()
	cpu0 := cpuTime()
	t0 := time.Now()
	m, err := l.src.MigrateTo(ctx, l.addr, vmName, sched.MigrateOptions{
		Recycle:        true,
		KeepCheckpoint: true,
		OnAttempt:      func(int, core.Metrics, error) { attempts++ },
	})
	returned := time.Now()
	statRet := readCPUStat()
	var a arrival
	if err == nil {
		select {
		case a = <-b.arrivals:
		case <-time.After(arrivalTimeout):
			err = errors.New("guest never arrived")
		}
	}
	cpu1 := cpuTime()
	if traced {
		pprof.StopCPUProfile()
		alloc1 = totalAlloc()
	}
	if err != nil {
		return legResult{}, fmt.Errorf("migration: %w", err)
	}
	if attempts != 1 {
		return legResult{}, fmt.Errorf("migration took %d attempts", attempts)
	}
	if !a.v.MemEqual(l.guest) {
		return legResult{}, fmt.Errorf("destination memory differs from the source's at page %d", a.v.FirstDifference(l.guest))
	}
	after := b.snap(l)
	// A degraded step, such as a failed post-migration save, still lets
	// MigrateTo succeed, and it skips work the window would have timed.
	if g := grown(before.reg, after.reg, "vecycle_degraded_total"); len(g) > 0 {
		return legResult{}, fmt.Errorf("migration degraded: %s", strings.Join(g, ", "))
	}
	end, statEnd := returned, statRet
	if a.at.After(end) {
		end, statEnd = a.at, a.stat
	}
	r := legResult{
		readyWall: a.at.Sub(t0),
		doneWall:  end.Sub(t0),
		cpu:       cpu1 - cpu0,
		wireBytes: m.BytesSent + m.BytesReceived,
		arrived:   a.v,
	}
	r.ready = lessSteal(r.readyWall, stat0, a.stat)
	r.done = lessSteal(r.doneWall, stat0, statEnd)
	if traced {
		samples, perr := parseProfile(prof.Bytes())
		if perr != nil {
			return legResult{}, perr
		}
		b.inst.cpu.add(samples)
		r.layer, err = b.layers(l, before, after, m, a, returned, attempts)
		if err != nil {
			return legResult{}, err
		}
		r.layer["runtime.alloc_bytes"] = float64(alloc1 - alloc0)
	}
	return r, nil
}

// totalAlloc is the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// legSnap is the registry and store state around a traced leg.
type legSnap struct {
	reg   []promSnap
	store []checkpoint.Stats
}

func (b *bench) snap(l *leg) legSnap {
	var s legSnap
	s.reg = []promSnap{snapshot(l.src.Registry()), snapshot(l.dst.Registry())}
	for _, st := range b.stores {
		s.store = append(s.store, st.Stats())
	}
	return s
}

// layers computes a traced leg's per-layer values.
func (b *bench) layers(l *leg, before, after legSnap, m core.Metrics, a arrival, returned time.Time, attempts int) (map[string]float64, error) {
	src, ok := latestRecord(l.src.Traces(), "source", vmName)
	if !ok {
		return nil, errors.New("no source trace record")
	}
	ph, ok := sourcePhases(src)
	if !ok {
		return nil, fmt.Errorf("source trace record %d lacks hello/round/done events", src.ID)
	}
	dst, ok := latestRecord(l.dst.Traces(), "dest", vmName)
	if !ok {
		return nil, errors.New("no destination trace record")
	}
	dstDone, ok := doneAt(dst)
	if !ok {
		return nil, fmt.Errorf("destination trace record %d lacks a done event", dst.ID)
	}
	var growth, dedup int64
	for i, st := range after.store {
		growth += st.PhysicalBytes - before.store[i].PhysicalBytes
		dedup += st.DedupPagesTotal - before.store[i].DedupPagesTotal
	}
	io, w := &b.inst.io, &b.inst.wire
	dm := a.res.Metrics
	hash := func(stage string) float64 {
		return regDelta(before.reg, after.reg, "vecycle_hash_bytes_total", `stage="`+stage+`"`)
	}
	return map[string]float64{
		"sched.save_s":                     returned.Sub(ph.done).Seconds(),
		"sched.arrive_s":                   a.at.Sub(dstDone).Seconds(),
		"sched.attempts":                   float64(attempts),
		"sched.degraded":                   regDelta(before.reg, after.reg, "vecycle_degraded_total", ""),
		"core.bootstrap_s":                 ph.bootstrap.Seconds(),
		"core.round1_s":                    ph.round1.Seconds(),
		"core.final_s":                     ph.final.Seconds(),
		"core.pages_full":                  float64(m.PagesFull),
		"core.pages_sum":                   float64(m.PagesSum),
		"core.pages_reused_in_place":       float64(dm.PagesReusedInPlace),
		"core.pages_reused_from_disk":      float64(dm.PagesReusedFromDisk),
		"core.announce_bytes":              float64(dm.AnnounceBytes),
		"core.page_frames":                 float64(m.PageFrames),
		"core.rounds":                      float64(m.Rounds),
		"core.stage.src_worker_busy_s":     m.Stages.WorkerBusy.Seconds(),
		"core.stage.src_emit_stall_s":      m.Stages.EmitStall.Seconds(),
		"core.stage.dst_ingest_stall_s":    dm.Stages.IngestStall.Seconds(),
		"checksum.hash_bytes.track":        hash("track"),
		"checksum.hash_bytes.save_keys":    hash("save_keys"),
		"checksum.hash_bytes.save_sidecar": hash("save_sidecar"),
		"checksum.hash_avoided_bytes":      regDelta(before.reg, after.reg, "vecycle_hash_avoided_bytes_total", ""),
		"checkpoint.write_bytes":           float64(io.writeBytes.Load()),
		"checkpoint.write_s":               time.Duration(io.writeNanos.Load()).Seconds(),
		"checkpoint.sync_count":            float64(io.syncs.Load()),
		"checkpoint.sync_s":                time.Duration(io.syncNanos.Load()).Seconds(),
		"checkpoint.read_bytes":            float64(io.readBytes.Load()),
		"checkpoint.read_s":                time.Duration(io.readNanos.Load()).Seconds(),
		"checkpoint.physical_growth_bytes": float64(growth),
		"checkpoint.dedup_pages":           float64(dedup),
		"wire.write_s":                     time.Duration(w.writeNanos.Load()).Seconds(),
		"wire.read_wait_s":                 time.Duration(w.readNanos.Load()).Seconds(),
		"wire.write_calls":                 float64(w.writeCalls.Load()),
		"wire.bytes_sent":                  float64(w.bytesSent.Load()),
		"wire.bytes_received":              float64(w.bytesReceived.Load()),
	}, nil
}

// scrub runs the recovery scan on every store; any quarantined entry or
// failed cleanup is a correctness breach.
func (b *bench) scrub() error {
	var errs []error
	for _, st := range b.stores {
		rep, err := st.Scrub()
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("scrub %s: %w", st.Dir(), err))
		case len(rep.Quarantined) > 0:
			errs = append(errs, fmt.Errorf("scrub %s: quarantined %v", st.Dir(), rep.Quarantined))
		case len(rep.CleanupFailures) > 0:
			errs = append(errs, fmt.Errorf("scrub %s: cleanup failures %v", st.Dir(), rep.CleanupFailures))
		}
	}
	return errors.Join(errs...)
}
