package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestUnitWritesVetx pins the reduced unitchecker protocol: every unit
// writes its (empty) vetx file because cmd/go expects one, and a VetxOnly
// dependency unit returns right after writing it. Its GoFiles do not exist,
// so an exit of 0 shows it was neither parsed nor type-checked.
func TestUnitWritesVetx(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.go")
	if err := os.WriteFile(src, []byte("package p\n\nfunc F() int { return 1 }\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  unitConfig
	}{
		{"vetx-only", unitConfig{VetxOnly: true, GoFiles: []string{filepath.Join(dir, "absent.go")}}},
		{"analyzed", unitConfig{Compiler: "gc", GoFiles: []string{src}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.ImportPath = "example.com/" + tc.name
			cfg.VetxOutput = filepath.Join(dir, tc.name+".vetx")
			data, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfgFile := filepath.Join(dir, tc.name+".cfg")
			if err := os.WriteFile(cfgFile, data, 0o666); err != nil {
				t.Fatal(err)
			}
			if code := runUnit(cfgFile, All()); code != 0 {
				t.Fatalf("runUnit = %d, want 0", code)
			}
			if _, err := os.Stat(cfg.VetxOutput); err != nil {
				t.Fatalf("no vetx file written: %v", err)
			}
		})
	}
}
