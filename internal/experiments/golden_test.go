package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenAll is the SHA-256 of `dvfsbench -exp all -seed 1`, all 358
// lines of it: every reproduced table and figure, byte for byte. A
// change that moves a paper number must update this digest and
// EXPERIMENTS.md together.
const (
	goldenAll      = "66fe2ea40e5753358d4b429dcfdb4c804079d9db7a8aa21f6cf41e31f76dd7e8"
	goldenAllLines = 358
)

// TestReproductionGolden renders every experiment through the shared
// testSuite, whose seed is dvfsbench's default, so its controllers are
// trained once for this test and the shape tests alike.
func TestReproductionGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range Names {
		if err := testSuite.Report(&buf, name, ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != goldenAllLines {
		t.Errorf("report has %d lines, want %d", n, goldenAllLines)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenAll {
		t.Errorf("report sha256 %s, golden %s", got, goldenAll)
	}
}
