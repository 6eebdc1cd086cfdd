package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"vecycle/internal/checksum"
	"vecycle/internal/delta"
	"vecycle/internal/vm"
)

// Native fuzz targets (run on their seed corpus under plain `go test`; use
// `go test -fuzz FuzzAccept ./internal/core` for continuous fuzzing).

func FuzzAccept(f *testing.F) {
	// Seed with a valid hello and a few mutations.
	var valid bytes.Buffer
	h := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: 4096, PageCount: 4, Alg: checksum.MD5}
	if err := writeHello(&valid, h); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte{byte(msgHello)})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, workers := range garbageWidths {
			s, err := Accept(context.Background(), readWriter{bytes.NewReader(raw), io.Discard})
			if err != nil {
				return
			}
			// Structurally valid hello: the parsed sizes must be coherent.
			if s.MemBytes() < 0 {
				t.Errorf("negative MemBytes %d", s.MemBytes())
			}
			// A small enough VM is merged too: the stream after the hello
			// must terminate the merge with success or error, never panic.
			if s.MemBytes() > 0 && s.MemBytes() <= 64*vm.PageSize {
				v, err := vm.New(vm.Config{Name: s.VMName(), MemBytes: s.MemBytes(), Seed: 1})
				if err != nil {
					return
				}
				_, _ = s.Run(context.Background(), v, DestOptions{Workers: workers})
			}
		}
	})
}

func FuzzMergeStream(f *testing.F) {
	var valid bytes.Buffer
	h := hello{Version: ProtocolVersion, VMName: "vm0", PageSize: 4096, PageCount: 2, Alg: checksum.MD5}
	if err := writeHello(&valid, h); err != nil {
		f.Fatal(err)
	}
	page := make([]byte, vm.PageSize)
	if err := writePageFull(&valid, 0, checksum.MD5.Page(page), page); err != nil {
		f.Fatal(err)
	}
	if err := writeMsgType(&valid, msgDone); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:20])
	f.Fuzz(func(t *testing.T, raw []byte) {
		dst, err := vm.New(vm.Config{Name: "vm0", MemBytes: 2 * vm.PageSize, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Must terminate with success or error at every merge width, never
		// panic.
		for _, workers := range garbageWidths {
			_, _ = MigrateDest(context.Background(), readWriter{bytes.NewReader(raw), io.Discard}, dst, DestOptions{Workers: workers})
		}
	})
}

func FuzzDeltaDecode(f *testing.F) {
	old := make([]byte, 256)
	for i := range old {
		old[i] = byte(i)
	}
	newer := append([]byte(nil), old...)
	newer[10] ^= 0xFF
	enc, err := delta.Encode(nil, old, newer, 256)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte{0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, raw []byte) {
		out := make([]byte, 256)
		// Either decodes or errors; the output length never changes.
		_ = delta.Decode(old, raw, out)
		if len(out) != 256 {
			t.Error("output resized")
		}
	})
}
