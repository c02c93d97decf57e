package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// savedGraph writes a small graph to a temporary file.
func savedGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gen.Grid2D(6, 7).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	in := savedGraph(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-no-such-flag"}},
		{"no input", nil},
		{"p zero", []string{"-in", in, "-p", "0"}},
		{"p negative", []string{"-in", in, "-p", "-3"}},
		{"p too large", []string{"-in", in, "-p", "2097152"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, errb := runCLI(t, tc.args...); code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, errb)
			}
		})
	}
}

func TestMissingInputFileFails(t *testing.T) {
	code, _, errb := runCLI(t, "-in", filepath.Join(t.TempDir(), "missing.csr"))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb)
	}
}

// TestStatsEndToEnd checks the report covers the graph, the topology
// and one line per rank, and elides ranks past the eighth.
func TestStatsEndToEnd(t *testing.T) {
	in := savedGraph(t)
	code, out, errb := runCLI(t, "-in", in, "-p", "3", "-rcm")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"graph:", "post-RCM:", "topology:", "ghosts:", "rank  2:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if code, out, _ = runCLI(t, "-in", in, "-p", "10"); code != 0 || !strings.Contains(out, "... (2 more ranks)") {
		t.Errorf("exit %d, output:\n%s", code, out)
	}
}
