// Command gengraph generates the synthetic graph families from the
// paper's Table II, prints their statistics, and optionally saves them in
// the repository's binary CSR format.
//
// Usage:
//
//	gengraph -family rgg -n 100000 -deg 8 -seed 1 -o rgg.csr
//	gengraph -family rmat -scale 14
//	gengraph -family sbp -n 50000 -blocks 200 -deg 16 -overlap 0.55
//	gengraph -family kmer -comps 1000 -minside 5 -maxside 9
//	gengraph -family social -n 80000 -deg 10
//	gengraph -family banded -n 30000 -band 24 -fill 2.5
//	gengraph -family path -n 1000
//	gengraph -family grid -rows 30 -cols 40
//
// Add -rcm to reorder the result with Reverse Cuthill-McKee and -scramble
// to randomize vertex ids first.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// maxVertices bounds every generated graph: vertex ids are int32, and
// RMAT's 2^scale matches commmatrix's -scale ceiling.
const maxVertices = 1 << 30

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit so tests can drive the CLI.
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family   = fs.String("family", "", "rgg | rmat | sbp | kmer | social | banded | path | grid")
		n        = fs.Int("n", 10000, "vertices (rgg, sbp, social, banded, path)")
		deg      = fs.Float64("deg", 8, "target average degree (rgg, sbp, social)")
		seed     = fs.Int64("seed", 1, "generator seed")
		scale    = fs.Int("scale", 12, "rmat: log2 vertices")
		edgef    = fs.Int("edgef", 16, "rmat: edge factor")
		blocks   = fs.Int("blocks", 32, "sbp: number of blocks")
		overlap  = fs.Float64("overlap", 0.5, "sbp: cross-block edge probability")
		comps    = fs.Int("comps", 100, "kmer: grid components")
		minSide  = fs.Int("minside", 5, "kmer: min grid side")
		maxSide  = fs.Int("maxside", 9, "kmer: max grid side")
		band     = fs.Int("band", 24, "banded: bandwidth")
		fill     = fs.Float64("fill", 2.5, "banded: in-band edges per vertex")
		long     = fs.Float64("long", 0.002, "banded: long-range edge fraction")
		rows     = fs.Int("rows", 10, "grid: rows")
		cols     = fs.Int("cols", 10, "grid: columns")
		scramble = fs.Bool("scramble", false, "randomize vertex ids")
		rcm      = fs.Bool("rcm", false, "apply Reverse Cuthill-McKee reordering")
		out      = fs.String("o", "", "output file (binary CSR); omit to only print stats")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "gengraph: "+format+"\n", a...)
		return 2
	}
	// Each family's flags are checked against the generator's domain
	// before it runs: out-of-range values are usage errors, not panics
	// or runaway allocations. The comparisons are written so NaN fails.
	switch *family {
	case "rgg", "sbp", "social", "banded", "path":
		if *n < 1 || *n > maxVertices {
			return usage("-n %d out of range (want 1..%d)", *n, maxVertices)
		}
	}
	switch *family {
	case "rgg", "sbp", "social":
		if !(*deg > 0 && *deg < float64(*n)) {
			return usage("-deg %g out of range (want 0 < deg < n = %d)", *deg, *n)
		}
	}
	var g *graph.CSR
	switch *family {
	case "rgg":
		g = gen.RGG(*n, gen.RGGRadiusForDegree(*n, *deg), *seed)
	case "rmat":
		if *scale < 1 || *scale > 30 {
			return usage("-scale %d out of range (want 1..30)", *scale)
		}
		if *edgef < 1 || *edgef > 1024 {
			return usage("-edgef %d out of range (want 1..1024)", *edgef)
		}
		g = gen.RMAT(*scale, *edgef, 0.57, 0.19, 0.19, 0.05, *seed)
	case "sbp":
		if *blocks < 1 || *blocks > *n {
			return usage("-blocks %d out of range (want 1..n = %d)", *blocks, *n)
		}
		if !(*overlap >= 0 && *overlap < 1) {
			return usage("-overlap %g out of range (want 0 <= overlap < 1)", *overlap)
		}
		g = gen.SBP(*n, *blocks, *deg, *overlap, *seed)
	case "kmer":
		if *minSide < 1 || *maxSide < *minSide || *maxSide > 1<<15 {
			return usage("-minside %d -maxside %d invalid (want 1 <= minside <= maxside <= %d)", *minSide, *maxSide, 1<<15)
		}
		if *comps < 1 || *comps > maxVertices/(*maxSide**maxSide) {
			return usage("-comps %d out of range (want 1..%d at -maxside %d)", *comps, maxVertices/(*maxSide**maxSide), *maxSide)
		}
		g = gen.KMerGrids(*comps, *minSide, *maxSide, *seed)
	case "social":
		g = gen.Social(*n, *deg, *seed)
	case "banded":
		if *band < 1 {
			return usage("-band %d out of range (want >= 1)", *band)
		}
		if !(*fill >= 0 && *fill <= 1024) {
			return usage("-fill %g out of range (want 0..1024)", *fill)
		}
		if !(*long >= 0 && *long <= 1) {
			return usage("-long %g out of range (want 0..1)", *long)
		}
		g = gen.BandedMesh(*n, *band, *fill, *long, *seed)
	case "path":
		g = gen.Path(*n)
	case "grid":
		if *rows < 1 || *cols < 1 || *rows > maxVertices / *cols {
			return usage("-rows %d -cols %d out of range (want both >= 1, rows*cols <= %d)", *rows, *cols, maxVertices)
		}
		g = gen.Grid2D(*rows, *cols)
	default:
		return usage("unknown -family %q (want rgg|rmat|sbp|kmer|social|banded|path|grid)", *family)
	}
	if *scramble {
		g, _ = gen.Scramble(g, *seed^0x5ca1ab1e)
	}
	if *rcm {
		g = order.Apply(g, order.RCM(g))
	}
	fmt.Fprintln(stdout, g.Summary())
	if *out != "" {
		var err error
		if strings.HasSuffix(*out, ".mtx") {
			var f *os.File
			if f, err = os.Create(*out); err == nil {
				err = g.WriteMatrixMarket(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		} else {
			err = g.SaveFile(*out)
		}
		if err != nil {
			fmt.Fprintln(stderr, "gengraph:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", *out)
	}
	return 0
}
