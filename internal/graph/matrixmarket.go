package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Matrix Market support. The paper's real-world inputs (Cage15, HV15R,
// Orkut, Friendster, the protein k-mer graphs) are distributed by the
// SuiteSparse Matrix Collection and the MIT Graph Challenge as Matrix
// Market coordinate files; this reader turns them into CSR graphs so the
// benchmark harness can run the originals when they are available
// locally. Supported headers: matrix coordinate {real|integer|pattern}
// {general|symmetric}. Entries off the diagonal become undirected edges
// (both triangle conventions collapse to the same simple graph);
// pattern matrices get unit weights.

// mmMaxIsolated bounds how many vertices a size line may declare beyond
// the 2*nnz that its entries can touch.
const mmMaxIsolated = 1 << 20

// ReadMatrixMarket parses a Matrix Market coordinate stream into an
// undirected weighted graph. Rectangular matrices are rejected, and so
// are size lines declaring more than mmMaxIsolated vertices beyond what
// the entries can touch.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("graph: not a MatrixMarket matrix header: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("graph: only coordinate format supported, got %q", header[2])
	}
	field, sym := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("graph: unsupported field type %q", field)
	}
	switch sym {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("graph: unsupported symmetry %q", sym)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("graph: bad size line %q", line)
		}
		var err error
		if rows, err = strconv.Atoi(f[0]); err != nil {
			return nil, fmt.Errorf("graph: bad row count: %w", err)
		}
		if cols, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("graph: bad column count: %w", err)
		}
		if nnz, err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("graph: bad nnz count: %w", err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("graph: negative size line %d %d %d", rows, cols, nnz)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		// CSR.Adj stores vertex ids as int32.
		return nil, fmt.Errorf("graph: %dx%d matrix exceeds the int32 vertex-id range", rows, cols)
	}
	if rows != cols {
		return nil, fmt.Errorf("graph: adjacency matrix must be square, got %dx%d", rows, cols)
	}
	// At most 2*nnz vertices have an incident entry; the rest are
	// isolated. Cap those so a bare size line cannot commit gigabytes of
	// CSR offsets (8 bytes per declared vertex) to vertices no entry
	// touches.
	if rows-mmMaxIsolated > 2*min(nnz, math.MaxInt32) {
		return nil, fmt.Errorf("graph: %d vertices declared for only %d entries (more than %d isolated)", rows, nnz, mmMaxIsolated)
	}

	b := NewBuilder(rows)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		wantCols := 3
		if field == "pattern" {
			wantCols = 2
		}
		if len(f) < wantCols {
			return nil, fmt.Errorf("graph: entry %d malformed: %q", read+1, line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("graph: entry %d row: %w", read+1, err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("graph: entry %d col: %w", read+1, err)
		}
		if i < 1 || i > rows || j < 1 || j > rows {
			return nil, fmt.Errorf("graph: entry %d index (%d,%d) out of range", read+1, i, j)
		}
		w := 1.0
		if field != "pattern" {
			if w, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, fmt.Errorf("graph: entry %d value: %w", read+1, err)
			}
			if w < 0 {
				w = -w // matchers need nonnegative weights; magnitude is standard
			}
		}
		if i != j {
			b.AddEdge(i-1, j-1, w)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("graph: expected %d entries, found %d", nnz, read)
	}
	return b.Build(), nil
}

// LoadMatrixMarket reads a Matrix Market file from path.
func LoadMatrixMarket(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrixMarket(f)
}

// WriteMatrixMarket emits the graph as a symmetric real coordinate
// matrix (each undirected edge written once, lower triangle).
func (g *CSR) WriteMatrixMarket(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real symmetric")
	fmt.Fprintf(bw, "%d %d %d\n", g.NumVertices(), g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			if int(a) <= v { // lower triangle, 1-based
				fmt.Fprintf(bw, "%d %d %g\n", v+1, a+1, ws[i])
			}
		}
	}
	return bw.Flush()
}
