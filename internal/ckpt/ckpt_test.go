package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sample builds a representative snapshot: two worlds, multi-parameter
// experts, a gate RNG state, non-trivial counters.
func sample() *Snapshot {
	mk := func(name string, vals ...float64) Tensor {
		return Tensor{Name: name, Shape: []int{1, len(vals)}, Data: vals}
	}
	return &Snapshot{
		Step: 7,
		Worlds: []WorldState{
			{
				Steps: 7,
				Gate:  []Tensor{mk("gshard.wg", 0.5, -1.25), mk("gshard.wnoise", 3.5)},
				Experts: [][]Tensor{
					{mk("ffn.w1", 1, 2, 3), mk("ffn.b1", 0)},
					{mk("ffn.w1", -4, 5e-300, 6), mk("ffn.b1", 1)},
				},
				GateRNG: []RNGState{{State: 0xdeadbeef, Gamma: 0x9e3779b97f4a7c15}},
			},
			{Steps: 7, Gate: []Tensor{mk("ec.wg", 9)}},
		},
	}
}

func TestCkptRoundTrip(t *testing.T) {
	want := sample()
	raw, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCkptPortableFloats: the per-element loop a big-endian host runs
// writes and reads the same bytes as the copy a little-endian host does.
func TestCkptPortableFloats(t *testing.T) {
	want := sample()
	native, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	defer func(le bool) { nativeLE = le }(nativeLE)
	nativeLE = false
	portable, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(native, portable) {
		t.Fatal("the portable encoding differs from the native one")
	}
	got, err := Decode(native)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("the portable decoding differs from the snapshot")
	}
}

func TestCkptSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap"+Ext)
	want := sample()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("save/load round trip mismatch")
	}
	// Atomicity: no temp residue survives a successful save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after save", e.Name())
		}
	}
}

// TestCkptTruncation: every truncation point fails with ErrTruncated —
// inside the header, inside the payload, and inside the trailer CRC.
func TestCkptTruncation(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, headerLen - 1, headerLen + 5, len(raw) - trailerLen - 1, len(raw) - 1} {
		if _, err := Decode(raw[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("Decode of %d/%d bytes = %v, want ErrTruncated", n, len(raw), err)
		}
	}
}

// TestCkptBitFlip: flipping any single bit of the payload (or the stored
// CRC) is detected as ErrChecksum; flipping the length field reads as
// truncation; flipping the magic or version as their own typed errors.
func TestCkptBitFlip(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int, bit uint) []byte {
		c := append([]byte(nil), raw...)
		c[off] ^= 1 << bit
		return c
	}
	// Payload corruption, sampled across the payload and the CRC trailer.
	for _, off := range []int{headerLen, headerLen + 7, len(raw)/2 | 1, len(raw) - trailerLen, len(raw) - 1} {
		if _, err := Decode(flip(off, 3)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("bit flip at %d = %v, want ErrChecksum", off, err)
		}
	}
	// Length-field corruption (grows the claimed payload) = truncation.
	if _, err := Decode(flip(8+7, 7)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("length-field flip = %v, want ErrTruncated", err)
	}
	if _, err := Decode(flip(0, 0)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic flip = %v, want ErrBadMagic", err)
	}
	if _, err := Decode(flip(4, 0)); !errors.Is(err, ErrVersion) {
		t.Fatalf("version flip = %v, want ErrVersion", err)
	}
	// A sealed version-2 file, whose worlds carried a collective-op counter.
	v2 := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	seal(v2)
	if _, err := Decode(v2); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-2 file = %v, want ErrVersion", err)
	}
}

// TestCkptHugeLengthField: a length field near 2^64 reads as truncation —
// or, in a version-1 header, as the version error — never as a panic from
// a length sum that wrapped around.
func TestCkptHugeLengthField(t *testing.T) {
	le := binary.LittleEndian
	v1 := le.AppendUint64(le.AppendUint32([]byte("FSMC"), 1), math.MaxUint64-15)
	v1 = append(v1, make([]byte, 8)...)
	if _, err := Decode(v1); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 header with a 2^64-16 payload = %v, want ErrVersion", err)
	}
	for _, lens := range [][2]uint64{
		{math.MaxUint64, 1},
		{1, math.MaxUint64},
		{math.MaxUint64 - 3, 0},
		{1 << 63, 1<<63 + 4}, // 24 + M + D + 4 wraps to exactly the file's 32 bytes
	} {
		raw := le.AppendUint32([]byte("FSMC"), Version)
		raw = le.AppendUint64(le.AppendUint64(raw, lens[0]), lens[1])
		raw = append(raw, make([]byte, 8)...)
		if _, err := Decode(raw); !errors.Is(err, ErrTruncated) {
			t.Fatalf("metadata length %#x, data length %#x = %v, want ErrTruncated", lens[0], lens[1], err)
		}
	}
}

// TestCkptMalformed: a file whose checksum holds but whose structure does
// not add up fails with ErrMalformed, and Encode refuses a tensor whose
// shape does not account for its data.
func TestCkptMalformed(t *testing.T) {
	raw, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	resealed := func(c []byte) []byte { seal(c); return c }
	long := resealed(append(append([]byte(nil), raw...), 0, 0, 0, 0))
	// The first gate tensor's last dim, 2, becomes 3: the shapes now claim
	// one float64 more than the data span holds.
	bad := append([]byte(nil), raw...)
	dim := bytes.Index(bad, []byte("gshard.wg")) + len("gshard.wg") + 4 + 8
	bad[dim]++
	for what, c := range map[string][]byte{"trailing bytes": long, "shape past the data": resealed(bad)} {
		if _, err := Decode(c); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s = %v, want ErrMalformed", what, err)
		}
	}
	s := sample()
	s.Worlds[0].Gate[0].Shape = []int{3}
	if _, err := Encode(s); err == nil {
		t.Fatal("Encode of a shape that does not account for the data must fail")
	}
}

// FuzzLoad: Decode never panics. On any input it returns a typed error, or
// a snapshot that encodes back to exactly the input. Every input is also
// decoded with its trailer re-sealed, so mutations reach the metadata
// parser instead of stopping at the checksum.
func FuzzLoad(f *testing.F) {
	valid, err := Encode(sample())
	if err != nil {
		f.Fatal(err)
	}
	le := binary.LittleEndian
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(valid)
	f.Add(le.AppendUint64(le.AppendUint32([]byte("FSMC"), 1), 8))
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Add(le.AppendUint64(le.AppendUint64(le.AppendUint32([]byte("FSMC"), Version), 1<<63), 1<<63+4))
	f.Fuzz(func(t *testing.T, raw []byte) {
		decodeOrTypedError(t, raw)
		if len(raw) >= headerLen+trailerLen {
			c := append([]byte(nil), raw...)
			seal(c)
			decodeOrTypedError(t, c)
		}
	})
}

func decodeOrTypedError(t *testing.T, raw []byte) {
	t.Helper()
	s, err := Decode(raw)
	if err != nil {
		for _, typed := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrMalformed} {
			if errors.Is(err, typed) {
				return
			}
		}
		t.Fatalf("Decode error %v is none of the typed errors", err)
	}
	back, err := Encode(s)
	if err != nil {
		t.Fatalf("a decoded snapshot does not encode: %v", err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatalf("decoded %d bytes, re-encoded to %d different ones", len(raw), len(back))
	}
}

func TestCkptTruncatedFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap"+Ext)
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Load of truncated file = %v, want ErrTruncated", err)
	}
}

func TestCkptManager(t *testing.T) {
	m := &Manager{Dir: t.TempDir(), Keep: 2}
	if _, err := m.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Latest on empty dir = %v, want ErrNoCheckpoint", err)
	}
	for _, step := range []int{1, 2, 3} {
		s := sample()
		s.Step = step
		if _, err := save(m, s); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("Keep=2 retained %d snapshots: %v", len(paths), paths)
	}
	got, err := m.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 3 {
		t.Fatalf("LoadLatest step = %d, want 3", got.Step)
	}
	// Pruned oldest, kept the two newest.
	if base := filepath.Base(paths[0]); !strings.Contains(base, "000000000002") {
		t.Fatalf("oldest retained snapshot = %s, want step 2", base)
	}
}

func TestCkptManagerKeepAll(t *testing.T) {
	m := &Manager{Dir: t.TempDir()}
	for step := 0; step < 4; step++ {
		s := sample()
		s.Step = step
		if _, err := save(m, s); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("Keep=0 must retain all, got %d", len(paths))
	}
}

// TestCkptStartOwnsNoCallerMemory: once Start returns, the commit reads
// nothing of the snapshot it was handed: scribbling over every tensor while
// it runs still commits the bytes Start saw.
func TestCkptStartOwnsNoCallerMemory(t *testing.T) {
	m := &Manager{Dir: t.TempDir()}
	s := sample()
	want, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	path, err := m.Start(s)
	if err != nil {
		t.Fatal(err)
	}
	forEachTensor(s, func(tn *Tensor) {
		tn.Name = "scribbled"
		for k := range tn.Data {
			tn.Data[k] = -1
		}
	})
	s.Worlds[0].Steps = 99
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the committed file is not the snapshot Start was handed")
	}
}

// TestCkptManagerCommitFailure: a commit that fails in the background is
// reported, wrapping ErrCommit, by the next Start, which commits nothing;
// Wait returns the same error until a later Start commits again. A failed
// Save counts as reported. No temp file survives a failed commit.
func TestCkptManagerCommitFailure(t *testing.T) {
	m := &Manager{Dir: t.TempDir(), Keep: 1}
	s := sample()
	s.Step = 1
	if _, err := save(m, s); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory on step 2's final name: the rename fails
	// whatever the process may do.
	block := m.pathFor(2)
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	s.Step = 2
	if _, err := m.Start(s); err != nil {
		t.Fatalf("Start must accept the snapshot and fail in the background, got %v", err)
	}
	s.Step = 3
	_, startErr := m.Start(s)
	if !errors.Is(startErr, ErrCommit) {
		t.Fatalf("Start after a failed commit = %v, want ErrCommit", startErr)
	}
	for i := 0; i < 2; i++ {
		if err := m.Wait(); err != startErr {
			t.Fatalf("Wait = %v, want the failure Start reported: %v", err, startErr)
		}
	}
	if _, err := os.Stat(m.pathFor(3)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the Start that reported the failure committed anyway: %v", err)
	}
	s.Step = 2
	if _, err := save(m, s); !errors.Is(err, ErrCommit) {
		t.Fatalf("Save onto the blocked name = %v, want ErrCommit", err)
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	if _, err := save(m, s); err != nil {
		t.Fatalf("Save after a reported failure = %v, want a fresh commit", err)
	}
	entries, err := os.ReadDir(m.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(m.pathFor(2)) {
		t.Fatalf("directory holds %v, want only step 2's snapshot", entries)
	}
}

// TestCkptManagerConcurrentUse: Start, Wait, Save and List from several
// goroutines at once on one Manager; every step ends up committed whole.
func TestCkptManagerConcurrentUse(t *testing.T) {
	m := &Manager{Dir: t.TempDir()}
	const workers, each = 4, 5
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s := sample()
				s.Step = g*each + i
				var err error
				if i%2 == 0 {
					_, err = m.Start(s)
				} else {
					_, err = save(m, s)
				}
				if err == nil {
					_, err = m.List()
				}
				if err == nil {
					err = m.Wait()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != workers*each {
		t.Fatalf("%d snapshots on disk, want %d", len(paths), workers*each)
	}
	for _, p := range paths {
		if _, err := Load(p); err != nil {
			t.Fatal(err)
		}
	}
}

// saveStep commits sample() under step through m and returns the snapshot.
func saveStep(t *testing.T, m *Manager, step int) *Snapshot {
	t.Helper()
	s := sample()
	s.Step = step
	if _, err := save(m, s); err != nil {
		t.Fatal(err)
	}
	return s
}

// stat is os.Stat that fails the test.
func stat(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// checkCommitted: path Loads, and its bytes are exactly Encode(s).
func checkCommitted(t *testing.T, path string, s *Snapshot) {
	t.Helper()
	want, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s holds %d bytes that are not Encode's %d", filepath.Base(path), len(got), len(want))
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

// TestCkptManagerRecyclesOldest: at Keep = 2 each commit takes over the
// file of the snapshot its prune would delete, and every retained snapshot
// still Loads to exactly its encoding.
func TestCkptManagerRecyclesOldest(t *testing.T) {
	m := &Manager{Dir: t.TempDir(), Keep: 2}
	snaps := map[string]*Snapshot{m.pathFor(1): saveStep(t, m, 1), m.pathFor(2): saveStep(t, m, 2)}
	for step := 3; step <= 5; step++ {
		oldest := stat(t, m.pathFor(step-2))
		snaps[m.pathFor(step)] = saveStep(t, m, step)
		if !os.SameFile(oldest, stat(t, m.pathFor(step))) {
			t.Fatalf("step %d's commit did not reuse step %d's file", step, step-2)
		}
		paths, err := m.List()
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{m.pathFor(step - 1), m.pathFor(step)}; !slices.Equal(paths, want) {
			t.Fatalf("after step %d the directory holds %v, want %v", step, paths, want)
		}
		for _, p := range paths {
			checkCommitted(t, p, snaps[p])
		}
	}
}

// TestCkptManagerRecyclesOnlyWithAnotherSnapshot: at Keep = 1 and with
// every snapshot kept, no commit takes over an existing file: each commit's
// file is none of the files that were in the directory before it.
func TestCkptManagerRecyclesOnlyWithAnotherSnapshot(t *testing.T) {
	for _, keep := range []int{1, 0} {
		m := &Manager{Dir: t.TempDir(), Keep: keep}
		for step := 1; step <= 4; step++ {
			paths, err := m.List()
			if err != nil {
				t.Fatal(err)
			}
			var before []os.FileInfo
			for _, p := range paths {
				before = append(before, stat(t, p))
			}
			s := saveStep(t, m, step)
			fi := stat(t, m.pathFor(step))
			for k, old := range before {
				if os.SameFile(old, fi) {
					t.Fatalf("Keep=%d: step %d's commit renamed %s", keep, step, filepath.Base(paths[k]))
				}
			}
			checkCommitted(t, m.pathFor(step), s)
		}
	}
}

// TestCkptManagerRecycledFileCut: a recycled file longer than the new
// encoding ends at exactly its length. Left longer, it would fail to
// decode with ErrMalformed.
func TestCkptManagerRecycledFileCut(t *testing.T) {
	m := &Manager{Dir: t.TempDir(), Keep: 2}
	big := sample()
	big.Step = 1
	big.Worlds[0].Gate[0] = Tensor{Name: "wide", Shape: []int{4, 1000}, Data: make([]float64, 4000)}
	if _, err := save(m, big); err != nil {
		t.Fatal(err)
	}
	saveStep(t, m, 2)
	oldest := stat(t, m.pathFor(1))
	s := saveStep(t, m, 3)
	fi := stat(t, m.pathFor(3))
	if !os.SameFile(oldest, fi) {
		t.Fatal("step 3's commit did not reuse step 1's file")
	}
	if want, _ := Encode(s); fi.Size() != int64(len(want)) || oldest.Size() <= fi.Size() {
		t.Fatalf("the recycled file went from %d to %d bytes, want %d", oldest.Size(), fi.Size(), len(want))
	}
	checkCommitted(t, m.pathFor(3), s)
}

// TestCkptManagerRecyclesOnlyRegularFiles: an entry named like the oldest
// snapshot that is not a regular file is never taken over: not an empty
// directory, and not a symlink, whose target stays as it was.
func TestCkptManagerRecyclesOnlyRegularFiles(t *testing.T) {
	target := filepath.Join(t.TempDir(), "outside"+Ext)
	if err := Save(target, sample()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	for what, plant := range map[string]func(string) error{
		"directory": func(p string) error { return os.Mkdir(p, 0o755) },
		"symlink":   func(p string) error { return os.Symlink(target, p) },
	} {
		m := &Manager{Dir: t.TempDir(), Keep: 2}
		if err := plant(m.pathFor(0)); err != nil {
			t.Fatal(err)
		}
		saveStep(t, m, 1)
		s := saveStep(t, m, 2) // its prune removes step 0's entry
		if fi, err := os.Lstat(m.pathFor(2)); err != nil || !fi.Mode().IsRegular() {
			t.Fatalf("%s: step 2's snapshot is not a regular file: %v", what, err)
		}
		checkCommitted(t, m.pathFor(2), s)
		if got, err := os.ReadFile(target); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the commit wrote through the planted entry (%v)", what, err)
		}
	}
}

// TestCkptManagerRecycledCommitFailure: at Keep = 2 a commit that fails
// after taking over the oldest snapshot's file leaves the newest committed
// snapshot, no temp file, and Keep − 1 snapshots; the next commit after
// the failure is reported commits again.
func TestCkptManagerRecycledCommitFailure(t *testing.T) {
	m := &Manager{Dir: t.TempDir(), Keep: 2}
	saveStep(t, m, 1)
	newest := saveStep(t, m, 2)
	block := m.pathFor(3)
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := sample()
	s.Step = 3
	if _, err := save(m, s); !errors.Is(err, ErrCommit) {
		t.Fatalf("Save onto the blocked name = %v, want ErrCommit", err)
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(m.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != m.Keep-1 || entries[0].Name() != filepath.Base(m.pathFor(2)) {
		t.Fatalf("after the failure the directory holds %v, want only step 2's snapshot", entries)
	}
	checkCommitted(t, m.pathFor(2), newest)
	saveStep(t, m, 3)
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{m.pathFor(2), m.pathFor(3)}; !slices.Equal(paths, want) {
		t.Fatalf("after the next commit the directory holds %v, want %v", paths, want)
	}
}

// dirState reads every entry under dir, by relative path: a file's bytes,
// or "dir/" for a directory.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			state[rel] = "dir/"
			return nil
		}
		b, err := os.ReadFile(path)
		state[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestCkptManagerRefusesStaleStep: with Keep 1 or 2, Start and Save refuse
// a step older than the newest snapshot in the directory with ErrStaleStep,
// leaving the directory byte for byte and Wait's result as they were — a
// reported commit failure included — while the newest step itself and a
// later one commit. Keep-all commits the older step beside the newer ones.
// No Save returns a nil error with a path that does not exist.
func TestCkptManagerRefusesStaleStep(t *testing.T) {
	for _, keep := range []int{1, 2, 0} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			m := &Manager{Dir: t.TempDir(), Keep: keep}
			save := func(step int) error {
				s := sample()
				s.Step = step
				path, err := save(m, s)
				if err == nil {
					checkCommitted(t, path, s)
				}
				return err
			}
			refused := func(step int) {
				t.Helper()
				before, wait := dirState(t, m.Dir), m.Wait()
				s := sample()
				s.Step = step
				if path, err := m.Start(s); !errors.Is(err, ErrStaleStep) || path != "" {
					t.Fatalf("Start of step %d = %q, %v; want ErrStaleStep", step, path, err)
				}
				if err := save(step); !errors.Is(err, ErrStaleStep) {
					t.Fatalf("Save of step %d = %v, want ErrStaleStep", step, err)
				}
				if err := m.Wait(); err != wait {
					t.Fatalf("Wait after a refused Start = %v, before it %v", err, wait)
				}
				if after := dirState(t, m.Dir); !reflect.DeepEqual(after, before) {
					t.Fatalf("a refused Start changed the directory: %d entries before, %d after", len(before), len(after))
				}
			}
			for _, step := range []int{5, 6} {
				if err := save(step); err != nil {
					t.Fatal(err)
				}
			}
			if keep == 0 {
				if err := save(1); err != nil {
					t.Fatalf("keep-all Save of an older step = %v", err)
				}
				got, err := m.LoadLatest()
				if paths, _ := m.List(); err != nil || got.Step != 6 || len(paths) != 3 {
					t.Fatalf("keep-all after steps 5, 6 and 1: latest %v (%v), %d snapshots", got, err, len(paths))
				}
				return
			}
			refused(1)
			refused(5)
			for _, step := range []int{6, 7} {
				if err := save(step); err != nil {
					t.Fatalf("Save of step %d = %v", step, err)
				}
			}
			// A reported commit failure stays Wait's result across a refusal.
			if err := os.MkdirAll(filepath.Join(m.pathFor(8), "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := save(8); !errors.Is(err, ErrCommit) {
				t.Fatalf("Save onto the blocked name = %v, want ErrCommit", err)
			}
			refused(7)
		})
	}
}

// save is Start followed by Wait: it returns once s is durable, with the
// written path. A commit failure it returns counts as reported, so the
// next Start commits again.
func save(m *Manager, s *Snapshot) (string, error) {
	path, err := m.Start(s)
	if err != nil {
		return "", err
	}
	m.lockIdle()
	defer m.mu.Unlock()
	if m.err != nil {
		m.reported = true
		return "", m.err
	}
	return path, nil
}
