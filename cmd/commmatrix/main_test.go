package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		{"bad app", []string{"-app", "sorting"}},
		{"bad family", []string{"-family", "hypercube"}},
		{"bad model", []string{"-family", "rmat", "-scale", "8", "-p", "2", "-model", "smoke-signals"}},
		{"ranks too small", []string{"-family", "rmat", "-scale", "8", "-ranks", "1"}},
		{"ranks too large", []string{"-family", "rmat", "-scale", "8", "-ranks", "2097152"}},
		{"p too small", []string{"-family", "rmat", "-scale", "8", "-p", "0"}},
		{"rmat scale negative", []string{"-family", "rmat", "-scale", "-1"}},
		{"rmat scale zero", []string{"-family", "rmat", "-scale", "0"}},
		{"rmat scale too large", []string{"-family", "rmat", "-scale", "31"}},
		{"sbp n below one block", []string{"-family", "sbp", "-n", "100"}},
		{"social n zero", []string{"-family", "social", "-n", "0"}},
		{"social n negative", []string{"-family", "social", "-n", "-5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, errb := runCLI(t, tc.args...); code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, errb)
			}
		})
	}
}

func TestMissingInputFileFails(t *testing.T) {
	code, _, errb := runCLI(t, "-in", "/no/such/graph.csr")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb)
	}
}

// TestTinyBothEndToEnd drives matching and BFS on a generated graph and
// checks both matrices come out in CSV form with one row per rank.
func TestTinyBothEndToEnd(t *testing.T) {
	const p = 4
	code, out, errb := runCLI(t, "-family", "rmat", "-scale", "8", "-p", "4", "-app", "both", "-csv")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "graph:") || !strings.Contains(out, "matching (NSR):") || !strings.Contains(out, "bfs:") {
		t.Fatalf("missing sections in output:\n%s", out)
	}
	csvRows := 0
	for _, line := range strings.Split(out, "\n") {
		if cells := strings.Split(line, ","); len(cells) == p && !strings.Contains(line, " ") {
			csvRows++
		}
	}
	if csvRows != 2*p {
		t.Errorf("found %d CSV matrix rows, want %d (two %dx%d matrices):\n%s", csvRows, 2*p, p, p, out)
	}
}

// TestDensityPlotEndToEnd also exercises -ranks, the validated alias
// of -p: three plot rows means three ranks.
func TestDensityPlotEndToEnd(t *testing.T) {
	code, out, errb := runCLI(t, "-family", "sbp", "-n", "2000", "-ranks", "3", "-app", "matching", "-model", "ncl")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "matching (NCL):") {
		t.Fatalf("missing matching section:\n%s", out)
	}
	plotRows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") && strings.HasSuffix(line, "|") {
			plotRows++
		}
	}
	if plotRows != 3 {
		t.Errorf("found %d density rows, want 3:\n%s", plotRows, out)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestTimelineGolden pins the whole -timeline output of an NCL matching
// run byte for byte: the density plot and every rank's wait timeline.
// Regenerate with -update only for a deliberate change of the cost
// model or the rendering.
func TestTimelineGolden(t *testing.T) {
	code, out, errb := runCLI(t, "-family", "rmat", "-scale", "10", "-p", "8", "-app", "matching", "-model", "ncl", "-timeline")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if errb != "" {
		t.Errorf("unexpected stderr %q", errb)
	}
	golden := filepath.Join("testdata", "timeline.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if out != string(want) {
		t.Errorf("timeline output differs from %s (run with -update to regenerate):\n got:\n%s\nwant:\n%s", golden, out, want)
	}
}
