// Command benchgate fails CI when the pipelined migration engine scales
// negatively with workers, when the hash-once save path loses its edge
// over the rehashing one, when a recycled return migration runs slower
// than sending everything, or when a gated series regresses against a
// previously committed recording. It reads BENCH_migration.json (the
// `go test -json` stream `make bench` records), extracts the MB/s and
// B/op figures of every benchmark series, and enforces:
//
//   - scaling floor: every BenchmarkFirstRound/workers=N width stays
//     within -min-ratio of the workers=1 throughput (the regression the
//     range-frame work fixed: adding workers must never make migrations
//     meaningfully slower than the sequential engine);
//   - allocation flatness: workers=8 allocates at most -alloc-slack bytes
//     per migration more than workers=1 (the regression the pooled wire
//     buffers and install scratch fixed: before pooling, workers=8 sat
//     ~8 MB/op above workers=1);
//   - hash-once floor: BenchmarkSaveWarm/withsums runs at least
//     -warm-ratio times BenchmarkSaveWarm/rehash — the acceptance bar of
//     the precomputed-sum ingest path (skipped when the recording lacks
//     the series);
//   - recycling floor: BenchmarkRecycledReturn/recycled runs at least as
//     fast as BenchmarkRecycledReturn/baseline — a recycled return must
//     never lose to sending everything (skipped when the recording lacks
//     the series);
//   - with -baseline (typically the recording at HEAD): every gated
//     series — the FirstRound widths, the TrackIncoming widths, both
//     SaveWarm arms and both RecycledReturn arms — stays within
//     -min-ratio of its own previous
//     throughput, and its B/op does not grow more than -alloc-slack
//     beyond it. Series absent from either recording are skipped (the
//     benchmark matrix may legitimately change).
//
// The gates are deliberately floors, not speedup targets: CI runners are
// often single-core, where all widths converge, and sync.Pool refills
// after a mid-loop GC move B/op by a few hundred KB between runs. The
// default tolerances (-min-ratio 0.85, -alloc-slack 1 MiB ≈ one pooled
// buffer refill) ride out that noise while still catching the real
// regressions above, which were 3x slowdowns and multi-MB/op growth.
// On multi-core hardware the recorded ratios document the realized
// speedup; the deterministic per-migration allocation ceiling lives in
// internal/core's alloc tests, which force GC and are noise-free.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of a `go test -json` event benchgate consumes.
type testEvent struct {
	Action string
	Output string
}

// series holds one benchmark's recorded figures. bop is 0 when the
// recording lacks -benchmem columns.
type series struct {
	mbps float64
	bop  float64
}

var (
	// resultLine matches one reassembled benchmark result line; the name
	// keeps its GOMAXPROCS suffix (stripped separately) and only series
	// reporting MB/s are kept.
	resultLine  = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+.*?(\d+(?:\.\d+)?) MB/s(?:\s+(\d+) B/op)?`)
	procsSuffix = regexp.MustCompile(`-\d+$`)
	workersName = regexp.MustCompile(`^BenchmarkFirstRound/workers=(\d+)$`)
)

// gatedPrefixes selects the series the baseline gate covers. Prefix-exact
// on the sub-benchmark separator, so BenchmarkFirstRoundTCP (loopback
// throughput varies more across kernels than the in-process pipe) stays
// recorded but ungated.
var gatedPrefixes = []string{
	"BenchmarkFirstRound/",
	"BenchmarkTrackIncoming/",
	"BenchmarkSaveWarm/",
	"BenchmarkRecycledReturn/",
}

func main() {
	file := flag.String("file", "BENCH_migration.json", "go test -json benchmark recording to gate on")
	baseline := flag.String("baseline", "", "previous recording to gate against (empty or missing file = skip)")
	minRatio := flag.Float64("min-ratio", 0.85, "minimum throughput of every width relative to workers=1 (and of every gated series to the baseline)")
	allocSlack := flag.Float64("alloc-slack", 1<<20, "maximum workers=8 B/op growth over workers=1 (and of any gated series over the baseline), in bytes")
	warmRatio := flag.Float64("warm-ratio", 1.5, "minimum BenchmarkSaveWarm/withsums throughput relative to BenchmarkSaveWarm/rehash")
	flag.Parse()

	speeds, err := parseFile(*file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if err := gate(firstRound(speeds), *minRatio, *allocSlack); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if err := gateArms(speeds, "SaveWarm", "rehash", "withsums", *warmRatio); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if err := gateArms(speeds, "RecycledReturn", "baseline", "recycled", 1); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if _, err := os.Stat(*baseline); err != nil {
			fmt.Printf("benchgate: no baseline at %s, skipping regression gate\n", *baseline)
			return
		}
		prev, err := parseFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
			os.Exit(1)
		}
		if err := gateBaseline(speeds, prev, *minRatio, *allocSlack); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
	}
}

// parseFile extracts the MB/s and B/op per benchmark series from a go test
// -json stream. A single benchmark result line is split across several
// output events (the name flushes before the timing columns), so the
// events are reassembled into plain text before matching; when a series
// was recorded more than once the last run wins.
func parseFile(path string) (map[string]series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate stray non-JSON lines
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	speeds := make(map[string]series)
	for _, line := range strings.Split(text.String(), "\n") {
		m := resultLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := procsSuffix.ReplaceAllString(m[1], "")
		s, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		var bop float64
		if m[3] != "" {
			bop, _ = strconv.ParseFloat(m[3], 64)
		}
		speeds[name] = series{mbps: s, bop: bop}
	}
	return speeds, nil
}

// firstRound projects the BenchmarkFirstRound/workers=N series out of the
// named map for the scaling gates.
func firstRound(speeds map[string]series) map[int]series {
	widths := make(map[int]series)
	for name, s := range speeds {
		if m := workersName.FindStringSubmatch(name); m != nil {
			w, _ := strconv.Atoi(m[1])
			widths[w] = s
		}
	}
	return widths
}

// gated reports whether a series name is covered by the baseline gate.
func gated(name string) bool {
	for _, p := range gatedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// gate enforces the scaling floor and the allocation-flatness ceiling, and
// prints the realized ratios.
func gate(speeds map[int]series, minRatio, allocSlack float64) error {
	base, ok := speeds[1]
	if !ok || base.mbps <= 0 {
		return fmt.Errorf("no BenchmarkFirstRound/workers=1 series in the recording; run `make bench`")
	}
	if _, ok := speeds[8]; !ok {
		return fmt.Errorf("no BenchmarkFirstRound/workers=8 series in the recording; run `make bench`")
	}

	widths := make([]int, 0, len(speeds))
	for w := range speeds {
		widths = append(widths, w)
	}
	sort.Ints(widths)

	var failures []string
	for _, w := range widths {
		ratio := speeds[w].mbps / base.mbps
		fmt.Printf("benchgate: workers=%-2d %8.2f MB/s  %.2fx of workers=1", w, speeds[w].mbps, ratio)
		if speeds[w].bop > 0 {
			fmt.Printf("  %9.0f B/op", speeds[w].bop)
		}
		fmt.Println()
		if ratio < minRatio {
			failures = append(failures,
				fmt.Sprintf("workers=%d runs at %.2fx of workers=1 (floor %.2fx)", w, ratio, minRatio))
		}
	}
	if base.bop > 0 && speeds[8].bop > 0 {
		growth := speeds[8].bop - base.bop
		fmt.Printf("benchgate: alloc curve  workers=8 at %+.0f B/op over workers=1 (slack %.0f)\n",
			growth, allocSlack)
		if growth > allocSlack {
			failures = append(failures,
				fmt.Sprintf("workers=8 allocates %.0f B/op over workers=1 (slack %.0f)", growth, allocSlack))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("negative worker scaling:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// gateArms enforces a two-arm acceptance bar: Benchmark<bench>/<fast> must
// run at least floor times Benchmark<bench>/<slow> — the precomputed-sum
// save against the rehashing one, the recycled return against sending
// everything. Skipped when the recording predates the benchmark.
func gateArms(speeds map[string]series, bench, slow, fast string, floor float64) error {
	s, okS := speeds["Benchmark"+bench+"/"+slow]
	f, okF := speeds["Benchmark"+bench+"/"+fast]
	if !okS && !okF {
		return nil
	}
	if !okS || !okF || s.mbps <= 0 {
		return fmt.Errorf("recording has only one Benchmark%s arm; run `make bench`", bench)
	}
	ratio := f.mbps / s.mbps
	fmt.Printf("benchgate: %-14s %8.2f -> %8.2f MB/s  %.2fx of %s (floor %.2fx)\n",
		bench, s.mbps, f.mbps, ratio, slow, floor)
	if ratio < floor {
		return fmt.Errorf("%s/%s runs at %.2fx of %s (floor %.2fx): it lost its edge", bench, fast, ratio, slow, floor)
	}
	return nil
}

// gateBaseline compares each gated series against its own figure in a
// previous recording: throughput must stay within minRatio of the old
// number, and B/op must not grow more than allocSlack beyond it. Series
// absent from either recording are skipped (the benchmark matrix may
// legitimately change).
func gateBaseline(speeds, prev map[string]series, minRatio, allocSlack float64) error {
	names := make([]string, 0, len(speeds))
	for name := range speeds {
		if _, ok := prev[name]; ok && gated(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		cur, old := speeds[name], prev[name]
		if old.mbps > 0 {
			ratio := cur.mbps / old.mbps
			fmt.Printf("benchgate: baseline %-36s %8.2f -> %8.2f MB/s  %.2fx\n",
				name, old.mbps, cur.mbps, ratio)
			if ratio < minRatio {
				failures = append(failures,
					fmt.Sprintf("%s throughput fell to %.2fx of the baseline (floor %.2fx)", name, ratio, minRatio))
			}
		}
		if old.bop > 0 && cur.bop > 0 {
			growth := cur.bop - old.bop
			if growth > allocSlack {
				failures = append(failures,
					fmt.Sprintf("%s B/op grew %.0f beyond the baseline (slack %.0f)", name, growth, allocSlack))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("regression against the baseline recording:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
