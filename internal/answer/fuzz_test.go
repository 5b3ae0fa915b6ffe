package answer

import (
	"bytes"
	"testing"
)

// FuzzAnswerLoad feeds the answer-file loader arbitrary bytes. Each input
// either fails to load, or loads into a solution whose Save reproduces the
// input exactly: the loader accepts only what Save can write. The committed
// corpus holds a small quickstart answer, truncations of it, and a header
// claiming 2³¹ trees; a leaf with a forged depth is added as a seed. That
// property alone cannot catch the forged depth, since Save writes it back
// verbatim; TestLoadRejectsGarbage pins its rejection.
func FuzzAnswerLoad(f *testing.F) {
	f.Add(tamperedDepth())
	f.Fuzz(func(t *testing.T, data []byte) {
		sol, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := sol.Save(&out); err != nil {
			t.Fatalf("Save of a loaded solution: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("Save wrote %d bytes that differ from the %d loaded", out.Len(), len(data))
		}
	})
}
