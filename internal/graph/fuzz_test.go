package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket hardens the text parser: arbitrary input must
// either parse into a structurally valid graph or return an error —
// never panic, never produce a graph that fails Validate.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add(mmSymmetric)
	f.Add(mmGeneral)
	f.Add(mmPattern)
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
	f.Add("garbage")
	f.Add("%%MatrixMarket matrix coordinate real general\n-5 -5 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 -1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n99999999999 99999999999 0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n999999999 999999999 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		g, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("parser accepted input producing invalid graph: %v", verr)
		}
	})
}

// FuzzDecode hardens the binary reader the same way.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := pathGraph(5).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("GMCSR001 garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 1<<16 {
			return
		}
		g, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("decoder accepted bytes producing invalid graph: %v", verr)
		}
	})
}
