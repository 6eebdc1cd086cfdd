package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto), enough to attribute in-window CPU samples to layers
// without a dependency outside the standard library.

// sample is one profile sample: its call stack, leaf first, as fully
// qualified function names, and the CPU time it stands for.
type sample struct {
	stack []string
	nanos int64
}

// parseProfile decodes a gzipped pprof CPU profile into its samples.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string-table index
		strs      []string
		period    int64
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUints(s.locs, w, v, b)
				case 2:
					for _, u := range appendUints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		case 12: // period
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, errors.New("profile: function name out of string table")
				}
				stack = append(stack, strs[idx])
			}
		}
		// CPU profiles carry [samples, cpu nanoseconds]; fall back to the
		// sample count times the period if the second value is missing.
		var ns int64
		switch {
		case len(s.values) >= 2:
			ns = s.values[1]
		case len(s.values) == 1:
			ns = s.values[0] * period
		}
		out = append(out, sample{stack: stack, nanos: ns})
	}
	return out, nil
}

// appendUints appends a repeated integer field's values, packed (wire type
// 2) or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// walkFields calls fn for each protobuf field in msg: varint and fixed
// values arrive in v, length-delimited ones in b.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// Profile buckets. A sample belongs to the garbage collector when any frame
// is GC work; otherwise to the layer of its leaf-most frame that sits in a
// known layer package; otherwise to the scheduler when every frame is the
// runtime's own; otherwise to "other".
const (
	bucketGC    = "runtime.gc"
	bucketSched = "runtime.sched"
	bucketOther = "other"
)

// gcFrames mark a sample as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot",
	"runtime._GC",
}

// layerPrefixes map function-name prefixes to layer buckets, checked in
// order for each frame from the leaf up.
var layerPrefixes = []struct{ prefix, bucket string }{
	{"crypto/md5.", "checksum"},
	{"crypto/sha256.", "checksum"},
	{"crypto/internal/fips140/sha256.", "checksum"},
	{"vecycle/internal/checksum.", "checksum"},
	{"vecycle/internal/vm.", "vm"},
	{"vecycle/internal/core.", "core"},
	{"vecycle/internal/checkpoint.", "checkpoint"},
	{"vecycle/internal/sched.", "sched"},
	{"vecycle/internal/dirtytrack.", "dirtytrack"},
	{"vecycle/internal/obs.", "obs"},
	{"vecycle/internal/faultfs.", "checkpoint"},
	{"compress/", "compress"},
	{"net.", "wire"},
	{"os.", "disk"},
	{"main.", "bench"},
}

// classify names the bucket a stack (leaf first) falls into.
func classify(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFrames {
			if f == g || strings.HasPrefix(f, g+".") {
				return bucketGC
			}
		}
	}
	for _, f := range stack {
		for _, l := range layerPrefixes {
			if strings.HasPrefix(f, l.prefix) {
				return l.bucket
			}
		}
	}
	if len(stack) == 0 {
		return bucketOther
	}
	for _, f := range stack {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") {
			return bucketOther
		}
	}
	return bucketSched
}

// isVMCopy reports a sample spent copying or clearing guest memory: a
// memmove/memclr leaf with internal/vm on the stack.
func isVMCopy(stack []string) bool {
	if len(stack) == 0 {
		return false
	}
	leaf := stack[0]
	if leaf != "runtime.memmove" && !strings.HasPrefix(leaf, "runtime.memclr") {
		return false
	}
	for _, f := range stack[1:] {
		if strings.HasPrefix(f, "vecycle/internal/vm.") {
			return true
		}
	}
	return false
}

// cpuBuckets accumulates classified profile time across timed windows.
type cpuBuckets struct {
	nanos  map[string]int64
	vmCopy int64
	total  int64
}

func newCPUBuckets() *cpuBuckets { return &cpuBuckets{nanos: map[string]int64{}} }

// add folds one window's samples in.
func (c *cpuBuckets) add(samples []sample) {
	for _, s := range samples {
		c.nanos[classify(s.stack)] += s.nanos
		if isVMCopy(s.stack) {
			c.vmCopy += s.nanos
		}
		c.total += s.nanos
	}
}

// coverage is the share of profiled time that fell into a named bucket.
func (c *cpuBuckets) coverage() float64 {
	if c.total == 0 {
		return 0
	}
	return 1 - float64(c.nanos[bucketOther])/float64(c.total)
}

// names lists the buckets seen, largest first.
func (c *cpuBuckets) names() []string {
	out := make([]string, 0, len(c.nanos))
	for k := range c.nanos {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if c.nanos[out[i]] != c.nanos[out[j]] {
			return c.nanos[out[i]] > c.nanos[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
