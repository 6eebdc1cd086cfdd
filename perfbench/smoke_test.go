package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"vecycle/internal/faultfs"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics asserts the report carries exactly the spec's metrics with
// their units.
func checkMetrics(t *testing.T, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	var got, exp []string
	for k, m := range rep.Metrics {
		got = append(got, k+" "+m.Unit)
	}
	for _, m := range want {
		exp = append(exp, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if len(got) != len(exp) {
		t.Fatalf("metrics %v, want %v", got, exp)
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("metrics %v, want %v", got, exp)
		}
	}
}

// TestSmoke runs every workload briefly on a tiny guest, untraced and
// traced, and checks correctness, the reported metric names, and the page
// split each workload exists to produce.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := config{workload: w, seed: 3, seconds: 300 * time.Millisecond,
				memBytes: 1 << 20, workdir: t.TempDir(), setups: 2}
			rep, err := runBenchmark(context.Background(), cfg, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minLegs {
				t.Fatalf("untraced run: %+v", rep)
			}
			checkMetrics(t, rep, spec.EndToEnd)
			// ready_s and done_s leave out the stolen share of the window,
			// counted in 10 ms ticks, so on a tiny guest they can read 0;
			// the rest cannot.
			for _, k := range []string{"setup_s", "cpu_s", "wire_ratio", "rss_peak_mib"} {
				if !(rep.Metrics[k].Value > 0) {
					t.Errorf("%s = %v, want > 0", k, rep.Metrics[k].Value)
				}
			}

			rep, err = runBenchmark(context.Background(), cfg, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced run: %+v", rep)
			}
			checkMetrics(t, rep, spec.PerLayer)
			v := func(k string) float64 { return rep.Metrics[k].Value }
			pages := v("core.pages_full") + v("core.pages_sum")
			if pages != 256 {
				t.Errorf("a 1 MiB guest moved %v pages, want 256", pages)
			}
			if v("sched.attempts") != 1 || v("sched.degraded") != 0 {
				t.Errorf("attempts %v degraded %v", v("sched.attempts"), v("sched.degraded"))
			}
			switch w {
			case "cold":
				if v("core.pages_reused_from_disk") != 0 || v("core.pages_reused_in_place") != 0 || v("core.announce_bytes") != 0 {
					t.Errorf("cold migration reused pages or announced: %v", rep.Metrics)
				}
			case "return-churn":
				if v("core.pages_reused_in_place") < 0.9*pages {
					t.Errorf("return reused %v of %v pages in place, want >= 90%%", v("core.pages_reused_in_place"), pages)
				}
			case "union-warm":
				if v("core.pages_reused_from_disk") < 0.4*pages {
					t.Errorf("union reused %v of %v pages from disk, want >= 40%%", v("core.pages_reused_from_disk"), pages)
				}
			}
		})
	}
}

// TestDegradedLegFails fills the source's disk during the post-migration
// save. The program degrades and MigrateTo still succeeds; the benchmark
// must count the leg as failed, since the window skipped the save.
func TestDegradedLegFails(t *testing.T) {
	cfg := config{workload: "cold", seed: 3, memBytes: 1 << 20}
	b, err := newBench(cfg, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	inj := faultfs.NewInjector()
	b.fs = inj.FS(faultfs.OS)
	w, err := newWorkload(cfg.workload, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	l, err := w.next()
	if err != nil {
		t.Fatal(err)
	}
	defer l.dst.Close()
	inj.Arm(faultfs.Fault{Op: faultfs.OpWrite, Path: ".seg", Err: faultfs.ErrENOSPC, Times: -1})
	_, err = b.run(context.Background(), l, false)
	if err == nil || !strings.Contains(err.Error(), "vecycle_degraded_total") {
		t.Fatalf("run with a full source disk = %v, want a degraded failure", err)
	}
}

func TestRealMainRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "cold", "--trace", "2"},
		{"--workload", "cold", "--seconds", "0"},
	} {
		if code := realMain(append(args, "--workdir", t.TempDir()), io.Discard, io.Discard); code == 0 {
			t.Errorf("realMain(%v) = 0, want an error", args)
		}
	}
}
