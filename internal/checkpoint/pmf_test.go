package checkpoint

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vecycle/internal/checksum"
)

// FuzzLoadPMF feeds the page-manifest parser arbitrary file bytes — what
// recovery reads off a damaged disk. It must never panic, and whatever it
// accepts must re-encode to the same bytes (the reserved header byte
// aside, which the parser ignores).
func FuzzLoadPMF(f *testing.F) {
	keys := []checksum.Sum{ObjectAlgorithm.Page([]byte("a")), ObjectAlgorithm.Page([]byte("b"))}
	f.Add(encodePMF(keys))
	// A header-only pmf claiming 2^60 keys: the size check once wrapped
	// around and let the key slice allocation panic.
	huge := encodePMF(nil)
	binary.LittleEndian.PutUint64(huge[12:20], 1<<60)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := decodePMF(raw)
		if err != nil {
			return
		}
		enc := encodePMF(got)
		if len(enc) != len(raw) || !bytes.Equal(enc[:7], raw[:7]) || !bytes.Equal(enc[8:], raw[8:]) {
			t.Fatalf("accepted pmf of %d bytes re-encodes to %d different bytes", len(raw), len(enc))
		}
	})
}
