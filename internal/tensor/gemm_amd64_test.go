//go:build amd64 && !purego

package tensor

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAVX2Kernels runs the kernel ≡ portable suites a second time on what an
// amd64 CPU with AVX2 and FMA but no AVX-512 selects — the 4×8 plain kernel
// on every tile, the scalar activation and element-wise rows — where this CPU picks the
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
	t.Run("MatMulT1BlockedMatchesPortable", TestMatMulT1BlockedMatchesPortable)
	t.Run("FuzzGemmKernelsCorpus", func(t *testing.T) {
		for _, s := range append(gemmFuzzSeeds, readGemmCorpus(t)...) {
			checkGemmFuzz(t, fuzzGemmCase(s.seed, s.b))
		}
	})
	t.Run("ActivationBits", TestActivationBits)
	t.Run("ActivationRowsMatchScalar", TestActivationRowsMatchScalar)
	t.Run("RowKernelsMatchScalar", TestRowKernelsMatchScalar)
	t.Run("FuzzRowKernelsCorpus", func(t *testing.T) {
		for _, c := range append(rowFuzzSeeds, readRowCorpus(t)...) {
			checkRowKernels(t, c)
		}
	})
}

// readCorpus reads the committed corpus of fuzz target name: for each file,
// the literal inside each argument line's T(…), after the "go test fuzz v1"
// line. Every file must hold args arguments.
func readCorpus(t *testing.T, name string, args int) [][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no %s corpus: %v", name, err)
	}
	var inputs [][]string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != args+1 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a %s input", f, name)
		}
		lits := make([]string, args)
		for i, line := range lines[1:] {
			open := strings.IndexByte(line, '(')
			if open < 0 || !strings.HasSuffix(line, ")") {
				t.Fatalf("%s: argument %d is %q", f, i, line)
			}
			lits[i] = line[open+1 : len(line)-1]
		}
		inputs = append(inputs, lits)
	}
	return inputs
}

// corpusUint parses an integer literal of a corpus file; corpusByte a
// byte('…') one; corpusFloat a float64(…) one, or the bits of a
// math.Float64frombits(…) one.
func corpusUint(t *testing.T, lit string, bits int) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(lit, 0, bits)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func corpusByte(t *testing.T, lit string) uint8 {
	t.Helper()
	v, _, tail, err := strconv.UnquoteChar(strings.TrimSuffix(strings.TrimPrefix(lit, "'"), "'"), '\'')
	if err != nil || tail != "" || v > 0xff {
		t.Fatalf("%s is not a byte", lit)
	}
	return uint8(v)
}

func corpusFloat(t *testing.T, lit string) float64 {
	t.Helper()
	if strings.HasPrefix(lit, "0x") {
		return math.Float64frombits(corpusUint(t, lit, 64))
	}
	v, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// readGemmCorpus reads FuzzGemmKernels' committed corpus: a uint64 and ten
// bytes per file.
func readGemmCorpus(t *testing.T) []gemmFuzzSeed {
	t.Helper()
	var seeds []gemmFuzzSeed
	for _, lits := range readCorpus(t, "FuzzGemmKernels", 11) {
		s := gemmFuzzSeed{seed: corpusUint(t, lits[0], 64)}
		for i, lit := range lits[1:] {
			s.b[i] = corpusByte(t, lit)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// readRowCorpus reads FuzzRowKernels' committed corpus: a uint64, a uint16,
// two bytes and a float64 per file.
func readRowCorpus(t *testing.T) []rowCase {
	t.Helper()
	var cases []rowCase
	for _, lits := range readCorpus(t, "FuzzRowKernels", 5) {
		cases = append(cases, fuzzRowCase(corpusUint(t, lits[0], 64), uint16(corpusUint(t, lits[1], 16)),
			corpusByte(t, lits[2]), corpusByte(t, lits[3]), corpusFloat(t, lits[4])))
	}
	return cases
}
