package dataset_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/ppdp/ppdp/internal/synth"
)

// censusSnapshotSHA256 is the SHA-256 of the snapshot encoding of
// synth.Census(5000, 1). The format is on disk in every data directory, so
// an encoder change that moves a single byte must show up here.
const censusSnapshotSHA256 = "4c31b5fc1d84b208ff683a1abbe6c9a41741a01449b6f64d0e51ac452989c95a"

// TestSnapshotEncodingPinned pins the encoded bytes of the 5k census
// fixture, with the CRC pass run sequentially and one worker per column.
func TestSnapshotEncodingPinned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tbl := synth.Census(5000, 1)
		tbl.SetScanWorkers(workers)
		var buf bytes.Buffer
		if err := tbl.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != censusSnapshotSHA256 {
			t.Fatalf("workers=%d: snapshot SHA-256 %s, want %s", workers, got, censusSnapshotSHA256)
		}
	}
}
