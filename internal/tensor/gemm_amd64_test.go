//go:build amd64 && !purego

package tensor

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAVX2Kernels runs the kernel ≡ portable suites a second time on what an
// amd64 CPU with AVX2 and FMA but no AVX-512 selects — the 4×8 plain kernel
// on every tile, the scalar activation rows — where this CPU picks the
// 512-bit ones. On any other CPU the suites themselves run that
// configuration, or the portable bodies alone.
func TestAVX2Kernels(t *testing.T) {
	if !use512 {
		t.Skipf("this CPU selects the %s kernels, which the other suites run", Kernel())
	}
	use512 = false
	defer func() { use512 = true }()
	t.Run("GemmKernelsMatchPortable", TestGemmKernelsMatchPortable)
	t.Run("GemmWindowSetsMatchPortable", TestGemmWindowSetsMatchPortable)
	t.Run("FuzzGemmKernelsCorpus", func(t *testing.T) {
		for _, s := range append(gemmFuzzSeeds, readGemmCorpus(t)...) {
			checkGemmKernels(t, fuzzGemmCase(s.seed, s.b))
		}
	})
	t.Run("ActivationBits", TestActivationBits)
	t.Run("ActivationRowsMatchScalar", TestActivationRowsMatchScalar)
}

// readGemmCorpus reads FuzzGemmKernels' committed corpus: files of the line
// "go test fuzz v1", a uint64(…) line and nine byte('…') lines.
func readGemmCorpus(t *testing.T) []gemmFuzzSeed {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzGemmKernels", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzGemmKernels corpus: %v", err)
	}
	var seeds []gemmFuzzSeed
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 11 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a FuzzGemmKernels input", f)
		}
		var s gemmFuzzSeed
		if s.seed, err = strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(lines[1], "uint64("), ")"), 10, 64); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for i, line := range lines[2:] {
			lit := strings.TrimSuffix(strings.TrimPrefix(line, "byte('"), "')")
			v, _, tail, err := strconv.UnquoteChar(lit, '\'')
			if err != nil || tail != "" || v > 0xff {
				t.Fatalf("%s: argument %d is %q, not a byte", f, i+2, line)
			}
			s.b[i] = uint8(v)
		}
		seeds = append(seeds, s)
	}
	return seeds
}
