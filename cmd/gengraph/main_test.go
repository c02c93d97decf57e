package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-no-such-flag"}},
		{"no family", nil},
		{"bad family", []string{"-family", "hypercube"}},
		{"path n negative", []string{"-family", "path", "-n", "-5"}},
		{"path n zero", []string{"-family", "path", "-n", "0"}},
		{"grid rows negative", []string{"-family", "grid", "-rows", "-2"}},
		{"grid cols zero", []string{"-family", "grid", "-cols", "0"}},
		{"grid too large", []string{"-family", "grid", "-rows", "65536", "-cols", "65536"}},
		{"kmer sides inverted", []string{"-family", "kmer", "-minside", "9", "-maxside", "2"}},
		{"kmer minside zero", []string{"-family", "kmer", "-minside", "0"}},
		{"kmer comps negative", []string{"-family", "kmer", "-comps", "-1"}},
		{"rgg n zero", []string{"-family", "rgg", "-n", "0"}},
		{"rgg deg zero", []string{"-family", "rgg", "-deg", "0"}},
		{"rgg deg NaN", []string{"-family", "rgg", "-deg", "NaN"}},
		{"rgg deg above n", []string{"-family", "rgg", "-n", "10", "-deg", "40"}},
		{"sbp blocks zero", []string{"-family", "sbp", "-blocks", "0"}},
		{"sbp blocks above n", []string{"-family", "sbp", "-n", "10", "-blocks", "11", "-deg", "2"}},
		{"sbp overlap one", []string{"-family", "sbp", "-overlap", "1"}},
		{"social deg negative", []string{"-family", "social", "-deg", "-3"}},
		{"rmat scale zero", []string{"-family", "rmat", "-scale", "0"}},
		{"rmat scale too large", []string{"-family", "rmat", "-scale", "31"}},
		{"rmat edgef zero", []string{"-family", "rmat", "-edgef", "0"}},
		{"banded band zero", []string{"-family", "banded", "-band", "0"}},
		{"banded fill negative", []string{"-family", "banded", "-fill", "-1"}},
		{"banded long Inf", []string{"-family", "banded", "-long", "Inf"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, errb := runCLI(t, tc.args...); code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, errb)
			}
		})
	}
}

func TestUnwritableOutputFails(t *testing.T) {
	code, _, errb := runCLI(t, "-family", "path", "-n", "10", "-o", filepath.Join(t.TempDir(), "no", "such", "dir.csr"))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb)
	}
}

// TestEveryFamilyEndToEnd generates each family at a small size and
// round-trips one through the binary format.
func TestEveryFamilyEndToEnd(t *testing.T) {
	for _, args := range [][]string{
		{"-family", "rgg", "-n", "500"},
		{"-family", "rmat", "-scale", "8"},
		{"-family", "sbp", "-n", "600", "-blocks", "6"},
		{"-family", "kmer", "-comps", "5"},
		{"-family", "social", "-n", "500"},
		{"-family", "banded", "-n", "500", "-rcm"},
		{"-family", "path", "-n", "1"},
		{"-family", "grid", "-rows", "4", "-cols", "5", "-scramble"},
	} {
		code, out, errb := runCLI(t, args...)
		if code != 0 || out == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out, errb)
		}
	}
	path := filepath.Join(t.TempDir(), "grid.csr")
	code, out, errb := runCLI(t, "-family", "grid", "-rows", "4", "-cols", "5", "-o", path)
	if code != 0 || !strings.Contains(out, "wrote "+path) {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errb)
	}
	g, err := graph.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 20 || g.NumEdges() != 31 {
		t.Errorf("saved grid has %d vertices and %d edges, want 20 and 31", g.NumVertices(), g.NumEdges())
	}
}
