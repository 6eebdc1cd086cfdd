// Command vecycle runs live migrations between hosts over TCP, with or
// without checkpoint recycling.
//
// Subcommands:
//
//	vecycle dest -listen 127.0.0.1:7001 -store /var/lib/vecycle [-count 1]
//	    Accept incoming migrations, bootstrapping from the local checkpoint
//	    store when a checkpoint for the arriving VM exists.
//
//	vecycle source -dest 127.0.0.1:7001 -vm vm0 -mem 64MiB -store /var/lib/vecycle
//	    Create a guest filled with random data and migrate it, leaving a
//	    checkpoint behind.
//
//	vecycle demo -mem 64MiB -migrations 4
//	    Self-contained ping-pong demo: two in-process hosts migrate one VM
//	    back and forth, printing the per-migration traffic shrinking as
//	    checkpoints accumulate.
//
//	vecycle store ls -store /var/lib/vecycle
//	vecycle store scrub -store /var/lib/vecycle
//	vecycle store gc -store /var/lib/vecycle
//	vecycle store stat -store /var/lib/vecycle
//	    Inspect a checkpoint store (entry state — complete, partial salvage,
//	    quarantined — plus per-entry logical vs unique bytes and sidecar
//	    status), run the crash-recovery scan on demand (scrub exits non-zero
//	    while quarantined entries remain), collect unreferenced page content
//	    (gc), or print the host-wide dedup accounting (stat); see
//	    docs/STORE.md.
//
// The source, dest and fleet subcommands take -ops-addr to serve live
// metrics and migration traces over HTTP (/metrics in Prometheus text
// format, /debug/migrations, /debug/pprof) and -trace-out to export the
// per-migration event traces as JSONL on exit; see docs/OBSERVABILITY.md.
//
// No subcommand takes a pipeline width: both migration engines run
// min(GOMAXPROCS, 8) workers, so the GOMAXPROCS environment variable sets
// it.
package main

import (
	"fmt"
	"os"

	"vecycle/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vecycle:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: vecycle <demo|fleet|source|dest|store> [flags]")
	}
	switch args[0] {
	case "demo":
		return runDemo(args[1:])
	case "source":
		return runSource(args[1:])
	case "dest":
		return runDest(args[1:])
	case "fleet":
		return runFleet(args[1:])
	case "store":
		return runStore(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want demo, fleet, source, dest or store)", args[0])
	}
}

// parseMem converts "64MiB" / "1GiB" / raw bytes into a byte count.
func parseMem(s string) (int64, error) {
	var n float64
	var unit string
	if _, err := fmt.Sscanf(s, "%f%s", &n, &unit); err != nil {
		if _, err2 := fmt.Sscanf(s, "%f", &n); err2 != nil {
			return 0, fmt.Errorf("cannot parse memory size %q", s)
		}
		unit = ""
	}
	switch unit {
	case "", "B":
		return int64(n), nil
	case "KiB":
		return int64(n * (1 << 10)), nil
	case "MiB":
		return int64(n * (1 << 20)), nil
	case "GiB":
		return int64(n * (1 << 30)), nil
	default:
		return 0, fmt.Errorf("unknown memory unit %q (want B, KiB, MiB, GiB)", unit)
	}
}

// printMetrics prints the normalized one-line summary (core.Metrics.String),
// so CLI output, logs, and tests all read the same format.
func printMetrics(prefix string, m core.Metrics) {
	fmt.Printf("%s: %s\n", prefix, m)
}
