// Command perfbench is the repository's end-to-end benchmark: real
// host-to-host migrations between two sched.Hosts in one process over
// loopback TCP, with checkpoint restore and the post-migration save
// included, on three workloads (cold, return-churn, union-warm). See
// README.md in this directory for the workloads, the metrics and how to
// run it.
//
//	bash perfbench/run.sh --workload return-churn --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced and then a traced phase and prints the per-layer metrics, the
// profile coverage and the tracing overhead. The last line of standard
// output is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Any failed or wrong migration, or a dirty store scrub, makes
// the exit status non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// minLegs is the fewest timed migrations a phase runs, however short.
const minLegs = 3

// guestBytes is the guest memory size every workload migrates.
const guestBytes = 128 << 20

// setupCount is how many times an untraced run builds its environment;
// setup_s is their median and the last one is measured.
const setupCount = 3

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	memBytes int64
	workdir  string
	setups   int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = fs.Int64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", 15, "seconds of timed migrations per run")
		trace    = fs.Int("trace", 0, "1 runs an untraced and a traced phase and reports per-layer metrics")
		workdir  = fs.String("workdir", ".bench_build/work", "directory for the hosts' checkpoint stores")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		memBytes: guestBytes,
		workdir:  filepath.Join(*workdir, fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		setups:   setupCount,
	}
	rep, err := runBenchmark(context.Background(), cfg, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// phase is one set-up environment and the legs measured on it.
type phase struct {
	setups    []time.Duration
	legs      []legResult
	attempted int
	failed    int
	errs      []error
	cpu       *cpuBuckets // traced phases only
}

// runPhase builds the workload's environment builds times, keeps the last,
// and migrates on it for seconds. Errors in set-up end the run; errors in
// a leg or the final scrub are counted as failures.
func runPhase(ctx context.Context, cfg config, name string, traced bool, builds int, seconds time.Duration) (phase, error) {
	var p phase
	var b *bench
	var w workload
	for s := 0; s < builds; s++ {
		if b != nil {
			if err := b.close(); err != nil {
				return p, err
			}
		}
		var err error
		if b, err = newBench(cfg, filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", name, s)), traced); err != nil {
			return p, err
		}
		if w, err = newWorkload(cfg.workload, b); err != nil {
			b.close()
			return p, err
		}
		stat0, start := readCPUStat(), time.Now()
		if err := w.setup(ctx); err != nil {
			b.close()
			return p, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, lessSteal(time.Since(start), stat0, readCPUStat()))
	}
	defer b.close()
	if traced {
		p.cpu = b.inst.cpu
	}
	deadline := time.Now().Add(seconds)
	for len(p.legs) < minLegs || time.Now().Before(deadline) {
		l, err := w.next()
		if err != nil {
			return p, err
		}
		p.attempted++
		r, err := b.run(ctx, l, traced)
		if err != nil {
			p.failed++
			p.errs = append(p.errs, err)
			l.dst.Close()
			break
		}
		if err := w.landed(l, r); err != nil {
			return p, err
		}
		r.arrived = nil // the workload holds what it still needs
		p.legs = append(p.legs, r)
	}
	if err := b.scrub(); err != nil {
		p.failed++
		p.errs = append(p.errs, err)
	}
	return p, nil
}

// durations maps legs to one timing in seconds.
func durations(legs []legResult, f func(legResult) time.Duration) []float64 {
	out := make([]float64, len(legs))
	for i, l := range legs {
		out[i] = f(l).Seconds()
	}
	return out
}

func readyOf(l legResult) time.Duration     { return l.ready }
func doneOf(l legResult) time.Duration      { return l.done }
func readyWallOf(l legResult) time.Duration { return l.readyWall }
func doneWallOf(l legResult) time.Duration  { return l.doneWall }
func cpuOf(l legResult) time.Duration       { return l.cpu }

func runBenchmark(ctx context.Context, cfg config, traced bool, out io.Writer) (report, error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return report{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	defer os.RemoveAll(cfg.workdir)
	fmt.Fprintf(out, "perfbench workload=%s seed=%d guest=%dMiB seconds=%g trace=%v\n",
		cfg.workload, cfg.seed, cfg.memBytes>>20, cfg.seconds.Seconds(), traced)
	if !traced {
		p, err := runPhase(ctx, cfg, "run", false, cfg.setups, cfg.seconds)
		if err != nil {
			return report{}, err
		}
		return endToEnd(cfg, p, out), nil
	}
	// The traced run measures an untraced phase first, on an environment
	// of its own, so the overhead of the instruments can be printed.
	half := cfg.seconds / 2
	plain, err := runPhase(ctx, cfg, "plain", false, 1, half)
	if err != nil {
		return report{}, err
	}
	tp, err := runPhase(ctx, cfg, "traced", true, 1, half)
	if err != nil {
		return report{}, err
	}
	return perLayer(plain, tp, out), nil
}

// failures prints a phase's errors and returns its correctness.
func failures(p phase, out io.Writer) bool {
	for _, err := range p.errs {
		fmt.Fprintf(out, "  FAILED: %v\n", err)
	}
	return p.failed == 0 && len(p.legs) > 0
}

// timing prints one timing metric with its sample count, quartiles and
// highest supported tail percentile, and returns its median.
func timing(out io.Writer, name string, xs []float64) float64 {
	med := median(xs)
	q1, _, q3, _ := quartiles(xs)
	tail := "no tail percentile below 20 samples"
	if p, ok := tailPercentile(len(xs)); ok {
		tail = fmt.Sprintf("p%g=%.4f", p, percentile(xs, p))
	}
	fmt.Fprintf(out, "  %-13s %10.4f s      n=%d q1=%.4f q3=%.4f %s\n", name, med, len(xs), q1, q3, tail)
	return med
}

func endToEnd(cfg config, p phase, out io.Writer) report {
	rep := report{
		Correct:   failures(p, out),
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metric{},
	}
	set := make([]float64, 0, len(p.setups))
	for _, d := range p.setups {
		set = append(set, d.Seconds())
	}
	setup := median(set)
	fmt.Fprintf(out, "  %-13s %10.4f s      median of %d set-ups %v\n", "setup_s", setup, len(set), p.setups)
	rep.Metrics["setup_s"] = metric{setup, "s"}
	rep.Metrics["ready_s"] = metric{timing(out, "ready_s", durations(p.legs, readyOf)), "s"}
	rep.Metrics["done_s"] = metric{timing(out, "done_s", durations(p.legs, doneOf)), "s"}
	rep.Metrics["cpu_s"] = metric{timing(out, "cpu_s", durations(p.legs, cpuOf)), "s"}
	fmt.Fprintln(out, "  raw wall clock, vCPU steal time included (information only):")
	timing(out, "ready_wall_s", durations(p.legs, readyWallOf))
	timing(out, "done_wall_s", durations(p.legs, doneWallOf))
	wire := make([]float64, len(p.legs))
	for i, l := range p.legs {
		wire[i] = float64(l.wireBytes) / float64(cfg.memBytes)
	}
	wr := median(wire)
	fmt.Fprintf(out, "  %-13s %10.4f ratio  wire bytes both ways per guest byte\n", "wire_ratio", wr)
	rep.Metrics["wire_ratio"] = metric{wr, "ratio"}
	fail := float64(p.failed) / float64(p.attempted)
	fmt.Fprintf(out, "  %-13s %10.4f ratio  %d of %d migrations failed, retried or wrong\n", "fail_ratio", fail, p.failed, p.attempted)
	rss := float64(peakRSS()) / (1 << 20)
	fmt.Fprintf(out, "  %-13s %10.1f MiB    peak resident set of the process\n", "rss_peak_mib", rss)
	rep.Metrics["rss_peak_mib"] = metric{rss, "MiB"}
	return rep
}

// stagePrefix names the pipelined engine's stage times. They read exactly
// zero on the sequential engine that is the default today, and a time that
// never varies is no measurement, so they are printed but left out of the
// JSON result.
const stagePrefix = "core.stage."

// layerUnit is a per-layer metric's unit, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.HasSuffix(name, "coverage"):
		return "ratio"
	}
	return "count"
}

func perLayer(plain, tp phase, out io.Writer) report {
	okPlain := failures(plain, out)
	okTraced := failures(tp, out)
	rep := report{
		Correct:   okPlain && okTraced,
		Attempted: plain.attempted + tp.attempted,
		Failed:    plain.failed + tp.failed,
		Metrics:   map[string]metric{},
	}
	if len(tp.legs) == 0 {
		return rep
	}
	fmt.Fprintln(out, "untraced phase:")
	pr := timing(out, "ready_s", durations(plain.legs, readyOf))
	pd := timing(out, "done_s", durations(plain.legs, doneOf))
	pc := timing(out, "cpu_s", durations(plain.legs, cpuOf))
	fmt.Fprintln(out, "traced phase:")
	tr := timing(out, "ready_s", durations(tp.legs, readyOf))
	td := timing(out, "done_s", durations(tp.legs, doneOf))
	tc := timing(out, "cpu_s", durations(tp.legs, cpuOf))
	fmt.Fprintf(out, "tracing overhead (traced - untraced medians): ready_s %+.4f s, done_s %+.4f s, cpu_s %+.4f s\n",
		tr-pr, td-pd, tc-pc)

	values := map[string][]float64{}
	for _, l := range tp.legs {
		for k, v := range l.layer {
			values[k] = append(values[k], v)
		}
	}
	for k, xs := range values {
		if !strings.HasPrefix(k, stagePrefix) {
			rep.Metrics[k] = metric{median(xs), layerUnit(k)}
		}
	}
	legs := float64(len(tp.legs))
	perLeg := func(ns int64) float64 { return time.Duration(ns).Seconds() / legs }
	rep.Metrics["checksum.cpu_s"] = metric{perLeg(tp.cpu.nanos["checksum"]), "s"}
	rep.Metrics["vm.copy_cpu_s"] = metric{perLeg(tp.cpu.vmCopy), "s"}
	rep.Metrics["runtime.gc_cpu_s"] = metric{perLeg(tp.cpu.nanos[bucketGC]), "s"}
	rep.Metrics["profile.coverage"] = metric{tp.cpu.coverage(), "ratio"}

	var parts []string
	for _, name := range tp.cpu.names() {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", name, 100*float64(tp.cpu.nanos[name])/float64(tp.cpu.total)))
	}
	fmt.Fprintf(out, "profile coverage: %.1f%% of %.3f s in-window CPU falls in a named layer bucket (%s)\n",
		100*tp.cpu.coverage(), time.Duration(tp.cpu.total).Seconds(), strings.Join(parts, ", "))

	m := func(k string) float64 { return rep.Metrics[k].Value }
	pages := m("core.pages_full") + m("core.pages_sum")
	if pages > 0 {
		fmt.Fprintf(out, "page split: full %.1f%%, sum %.1f%%, reused in place %.1f%%, reused from disk %.1f%%\n",
			100*m("core.pages_full")/pages, 100*m("core.pages_sum")/pages,
			100*m("core.pages_reused_in_place")/pages, 100*m("core.pages_reused_from_disk")/pages)
	}
	names := make([]string, 0, len(values)+4)
	for k := range rep.Metrics {
		names = append(names, k)
	}
	for k := range values {
		if strings.HasPrefix(k, stagePrefix) {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "per-layer medians over %d traced migrations:\n", len(tp.legs))
	for _, k := range names {
		if m, ok := rep.Metrics[k]; ok {
			fmt.Fprintf(out, "  %-36s %16.6g %s\n", k, m.Value, m.Unit)
		} else {
			fmt.Fprintf(out, "  %-36s %16.6g %s (text only: zero on the sequential engine)\n", k, median(values[k]), layerUnit(k))
		}
	}
	return rep
}
