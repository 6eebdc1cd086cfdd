package main

import (
	"bytes"
	"crypto/md5"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/md5.block", "crypto/md5.(*digest).Write", "vecycle/internal/checksum.Compute",
			"vecycle/internal/core.sendSequential"}, "checksum"},
		{[]string{"crypto/internal/fips140/sha256.blockSHANI", "crypto/sha256.Sum256",
			"vecycle/internal/checkpoint.(*Store).saveLocked"}, "checksum"},
		{[]string{"runtime.memmove", "vecycle/internal/vm.(*VM).InstallRange",
			"vecycle/internal/core.(*IncomingSession).mergeSequential"}, "vm"},
		{[]string{"syscall.Syscall6", "internal/poll.(*FD).Write", "net.(*conn).Write",
			"main.(*timedConn).Write", "vecycle/internal/core.(*DeadlineConn).Write"}, "wire"},
		{[]string{"syscall.Syscall6", "internal/poll.(*FD).Pread", "os.(*File).ReadAt",
			"vecycle/internal/checkpoint.(*Checkpoint).ReadBlock"}, "disk"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc.func1",
			"vecycle/internal/core.sendSequential"}, bucketGC},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, bucketSched},
		{[]string{"compress/flate.(*compressor).deflate", "vecycle/internal/checksum.EncodeV2"}, "compress"},
		{[]string{"sync.(*Mutex).Lock", "vecycle/internal/sched.(*Host).MigrateTo"}, "sched"},
		{[]string{"strconv.ParseFloat", "encoding/json.Marshal"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestIsVMCopy(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  bool
	}{
		{[]string{"runtime.memmove", "vecycle/internal/vm.(*VM).ReadRange", "vecycle/internal/core.x"}, true},
		{[]string{"runtime.memclrNoHeapPointers", "vecycle/internal/vm.New"}, true},
		{[]string{"runtime.memmove", "bufio.(*Writer).Write", "vecycle/internal/core.x"}, false},
		{[]string{"crypto/md5.block", "vecycle/internal/vm.(*VM).PageSum"}, false},
		{[]string{"vecycle/internal/vm.(*VM).MemEqual"}, false},
	} {
		if got := isVMCopy(c.stack); got != c.want {
			t.Errorf("isVMCopy(%v) = %v, want %v", c.stack, got, c.want)
		}
	}
}

func TestCPUBucketsCoverage(t *testing.T) {
	c := newCPUBuckets()
	c.add([]sample{
		{stack: []string{"crypto/md5.block"}, nanos: 60},
		{stack: []string{"runtime.memmove", "vecycle/internal/vm.(*VM).ReadRange"}, nanos: 30},
		{stack: []string{"strconv.ParseFloat"}, nanos: 10},
	})
	if got := c.coverage(); !near(got, 0.9) {
		t.Errorf("coverage = %v, want 0.9", got)
	}
	if c.vmCopy != 30 || c.nanos["checksum"] != 60 {
		t.Errorf("vmCopy %d checksum %d, want 30 and 60", c.vmCopy, c.nanos["checksum"])
	}
	if names := c.names(); names[0] != "checksum" || names[2] != bucketOther {
		t.Errorf("names = %v, want largest first", names)
	}
}

// TestParseProfile decodes a real CPU profile of an MD5 loop.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	page := make([]byte, 4096)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		md5.Sum(page)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	c := newCPUBuckets()
	c.add(samples)
	if c.total <= 0 {
		t.Fatalf("no profiled time in %d samples", len(samples))
	}
	if c.nanos["checksum"] == 0 {
		t.Errorf("no samples in the checksum bucket: %v", c.nanos)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
