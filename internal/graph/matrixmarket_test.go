package graph

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

const mmSymmetric = `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 3
2 1 5.0
3 1 1.5
3 2 2.5
`

const mmGeneral = `%%MatrixMarket matrix coordinate real general
3 3 4
1 2 5.0
2 1 5.0
1 3 1.5
2 2 9.0
`

const mmPattern = `%%MatrixMarket matrix coordinate pattern symmetric
4 4 3
2 1
3 2
4 3
`

func TestReadMatrixMarketSymmetric(t *testing.T) {
	g, err := ReadMatrixMarket(strings.NewReader(mmSymmetric))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 5.0 {
		t.Errorf("edge 0-1 = %v %v", w, ok)
	}
}

func TestReadMatrixMarketGeneralDedupsAndDropsDiagonal(t *testing.T) {
	g, err := ReadMatrixMarket(strings.NewReader(mmGeneral))
	if err != nil {
		t.Fatal(err)
	}
	// (1,2) and (2,1) collapse; (2,2) diagonal dropped.
	if g.NumEdges() != 2 {
		t.Fatalf("E=%d, want 2", g.NumEdges())
	}
	if g.Degree(1) != 1 {
		t.Errorf("degree(1)=%d", g.Degree(1))
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	g, err := ReadMatrixMarket(strings.NewReader(mmPattern))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("E=%d", g.NumEdges())
	}
	for _, w := range g.Weights {
		if w != 1 {
			t.Fatal("pattern weights must be unit")
		}
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"not mm":       "hello\n1 1 1\n",
		"array":        "%%MatrixMarket matrix array real general\n2 2 4\n",
		"complex":      "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 2 1 0\n",
		"rectangular":  "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2 1.0\n",
		"range":        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 5 1.0\n",
		"truncated":    "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 2 1.0\n",
		"bad value":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 xyz\n",
		"negative n":   "%%MatrixMarket matrix coordinate real general\n-5 -5 0\n",
		"negative nnz": "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
		"n > int32":    "%%MatrixMarket matrix coordinate pattern general\n99999999999 99999999999 0\n",
		"n = 2^31":     "%%MatrixMarket matrix coordinate pattern general\n2147483648 2147483648 0\n",
		"isolated":     "%%MatrixMarket matrix coordinate pattern general\n999999999 999999999 0\n",
		"sparse n":     "%%MatrixMarket matrix coordinate pattern general\n1048579 1048579 1\n1 2\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadMatrixMarketIsolatedBound pins the isolated-vertex cap at its
// edge: one entry touches two vertices, so 2+mmMaxIsolated vertices are
// accepted and one more is rejected (see TestReadMatrixMarketErrors).
func TestReadMatrixMarketIsolatedBound(t *testing.T) {
	n := 2 + mmMaxIsolated
	in := fmt.Sprintf("%%%%MatrixMarket matrix coordinate pattern general\n%d %d 1\n1 2\n", n, n)
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != n || g.NumEdges() != 1 {
		t.Fatalf("V=%d E=%d, want %d and 1", g.NumVertices(), g.NumEdges(), n)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := randomGraph(t, 20, 45, 9)
	var buf bytes.Buffer
	if err := g.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() || h.NumVertices() != g.NumVertices() {
		t.Fatalf("round trip changed sizes")
	}
	for v := 0; v < 20; v++ {
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			if w, ok := h.EdgeWeight(v, int(a)); !ok || w != ws[i] {
				t.Fatalf("edge {%d,%d} lost in round trip", v, a)
			}
		}
	}
}

func TestReadMatrixMarketNegativeWeightsAbs(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -3.5\n"
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(0, 1); w != 3.5 {
		t.Errorf("weight = %g, want |−3.5|", w)
	}
}

func TestLoadFileDetectsMatrixMarket(t *testing.T) {
	g := randomGraph(t, 10, 20, 15)
	dir := t.TempDir()
	mtx := dir + "/g.mtx"
	f, err := os.Create(mtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteMatrixMarket(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	bin := dir + "/g.csr"
	if err := g.SaveFile(bin); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{mtx, bin} {
		h, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if h.NumEdges() != g.NumEdges() {
			t.Errorf("%s: edges %d != %d", path, h.NumEdges(), g.NumEdges())
		}
	}
}
