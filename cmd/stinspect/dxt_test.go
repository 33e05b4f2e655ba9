package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDXTInput(t *testing.T) {
	dxtFile := filepath.Join(t.TempDir(), "trace.dxt")
	content := `# DXT, file_id: 1, file_name: /p/scratch/u/out
# DXT, rank: 0, hostname: n1
 X_POSIX 0 write 0 0 1048576 0.001000 0.004000
 X_POSIX 0 read 1 0 1048576 0.005000 0.007000
`
	if err := os.WriteFile(dxtFile, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"dfg", "-dxt", dxtFile}); err != nil {
		t.Errorf("dfg from dxt: %v", err)
	}
	if err := run([]string{"stats", "-dxt", dxtFile, "-cid", "job42"}); err != nil {
		t.Errorf("stats from dxt: %v", err)
	}
	// Mutually exclusive inputs.
	if err := run([]string{"dfg", "-dxt", dxtFile, "-traces", "x"}); err == nil {
		t.Errorf("multiple inputs accepted")
	}
	if err := run([]string{"dfg", "-dxt", "/no/such/file"}); err == nil {
		t.Errorf("missing dxt file accepted")
	}
	// A dump has no case index: the library rejects a range, for the
	// fold and the in-memory subcommands alike.
	for _, args := range [][]string{
		{"info", "-dxt", dxtFile, "-cases", "0:1"},
		{"percase", "-dxt", dxtFile, "-cases", "0:1"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "case range") {
			t.Errorf("run(%v) = %v, want the DXT case-range rejection", args, err)
		}
	}
}
