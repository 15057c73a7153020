// Package ckpt implements crash-consistent, checksummed snapshots of the
// executable runtime's full training state — the durable half of the
// fault-tolerance story. PR 6 made a World *survive* a permanent rank
// loss (degraded stepping around the dead rank); this package makes the
// loss *recoverable*: a snapshot taken before the failure carries every
// byte a rebuilt world needs to resume bit-identically — per-expert and
// gate parameters, the step and collective-op counters, and the private
// RNG state of noisy gates.
//
// On-disk format, version 2 (all integers little-endian):
//
//	offset 0        magic "FSMC" (4 bytes)
//	offset 4        format version, uint32
//	offset 8        metadata length M, uint64
//	offset 16       data length D, uint64 (8 bytes per float64)
//	offset 24       metadata record (M bytes)
//	offset 24+M     every tensor's data as raw float64 bits, in snapshot
//	                order: world by world, gate tensors, then each expert's
//	offset 24+M+D   CRC-32C (Castagnoli) of bytes [0, 24+M+D), uint32
//
// The metadata record holds everything but the tensor data:
//
//	step int64, world count uint32, then per world:
//	  steps int64, collOps int64,
//	  RNG count uint32, per RNG: state uint64, gamma uint64,
//	  the gate's tensor list,
//	  expert count uint32, per expert: its tensor list
//	tensor list: count uint32, per tensor:
//	  name length uint32, name bytes, rank uint32, rank × dim uint64
//
// Each tensor's data span is the product of its dims float64s long. So
// Encode is one pass of copies and the checksum the only other pass over
// the bytes. Version 1 (a gob payload under a CRC-64) is not read: it
// fails with ErrVersion.
//
// Three guarantees hold by construction:
//
//   - Atomicity: a snapshot is written to a temp file in the target
//     directory, fsynced, renamed over the final path, and the directory
//     is fsynced. A crash at any point leaves either the old snapshot or
//     the new one, never a torn file under the final name.
//
//   - Loud corruption: Decode verifies magic, version, lengths and
//     checksum, and that every shape accounts for its data span, before it
//     allocates. A truncated, bit-flipped, malformed or foreign file fails
//     with a typed sentinel error (ErrTruncated, ErrChecksum, ErrMalformed,
//     ErrBadMagic, ErrVersion) matchable with errors.Is — never silent
//     wrong state.
//
//   - The commit stays off the caller's path: a Manager encodes a snapshot
//     on the caller's goroutine and hands checksum, write, fsync, rename and
//     prune to one background goroutine, at most one commit in flight (see
//     Manager.Start). Once Start returns, the commit reads no caller memory,
//     so the snapshot may alias live parameters.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"unsafe"
)

// Version is the current snapshot format version. Decoding rejects any
// other version with ErrVersion; readers never guess at unknown layouts.
const Version = 2

// magic identifies a snapshot file ("FSMoe Checkpoint").
var magic = [4]byte{'F', 'S', 'M', 'C'}

// headerLen is the fixed prefix before the metadata; trailerLen the CRC.
const (
	headerLen  = 4 + 4 + 8 + 8
	trailerLen = 4
)

// Typed load failures, matchable with errors.Is. Every way a snapshot
// file can be bad maps to exactly one of them.
var (
	// ErrBadMagic reports a file that is not a snapshot at all.
	ErrBadMagic = errors.New("ckpt: not a checkpoint file (bad magic)")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")
	// ErrTruncated reports a snapshot shorter than its own accounting —
	// a torn write or a truncated copy.
	ErrTruncated = errors.New("ckpt: truncated checkpoint")
	// ErrChecksum reports corruption: the stored CRC-32C does not match
	// the bytes on disk.
	ErrChecksum = errors.New("ckpt: checksum mismatch (corrupted checkpoint)")
	// ErrMalformed reports a snapshot whose structure does not add up:
	// bytes past its accounting, or a metadata record that does not parse
	// or does not account for the data exactly.
	ErrMalformed = errors.New("ckpt: malformed checkpoint")
	// ErrNoCheckpoint reports a Manager directory holding no snapshot.
	ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")
)

// castagnoli is the CRC-32C table the trailer uses (hardware-backed on
// amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Tensor is one named parameter's snapshot: the shape and the flat data.
type Tensor struct {
	Name  string
	Shape []int
	Data  []float64
}

// RNGState is the full internal state of one xrand.RNG — the state word
// and the Weyl increment. Restoring it replays the identical stream.
type RNGState struct {
	State uint64
	Gamma uint64
}

// WorldState is one World's snapshot: its counters, every parameter of
// its layer (gate first, then each expert in index order — the GradElems
// layout), and the private RNG state of gates that hold one.
type WorldState struct {
	// Steps is the world's completed-step counter; CollOps the monotone
	// collective-operation counter that seeds deterministic fault-guard
	// ids. Restoring both makes a resumed run replay the same guard
	// decision space as the original.
	Steps   int
	CollOps int

	Gate    []Tensor   // gate parameters in Params() order
	Experts [][]Tensor // Experts[e] is expert e's parameters in Params() order

	// GateRNG holds the gate's private RNG state when the gate carries one
	// (GShard's noisy gating); empty otherwise.
	GateRNG []RNGState
}

// Snapshot is a full-stack training snapshot: one WorldState per layer,
// in stack order, plus the global step ordinal it was taken at.
type Snapshot struct {
	Step   int
	Worlds []WorldState
}

// Encode writes s in the versioned, checksummed wire format. It fails only
// on a tensor whose shape does not account for its data.
func Encode(s *Snapshot) ([]byte, error) {
	b, err := appendSnapshot(nil, s)
	if err != nil {
		return nil, err
	}
	seal(b)
	return b, nil
}

// appendSnapshot lays s out over buf's storage, growing it only when it is
// too small: header, metadata, data, and a zero trailer for seal to fill.
func appendSnapshot(buf []byte, s *Snapshot) ([]byte, error) {
	metaLen, elems, err := measure(s)
	if err != nil {
		return nil, err
	}
	b := slices.Grow(buf[:0], headerLen+metaLen+8*elems+trailerLen)
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(metaLen))
	b = binary.LittleEndian.AppendUint64(b, uint64(8*elems))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Step))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Worlds)))
	for i := range s.Worlds {
		ws := &s.Worlds[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(ws.Steps))
		b = binary.LittleEndian.AppendUint64(b, uint64(ws.CollOps))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ws.GateRNG)))
		for _, r := range ws.GateRNG {
			b = binary.LittleEndian.AppendUint64(b, r.State)
			b = binary.LittleEndian.AppendUint64(b, r.Gamma)
		}
		b = appendTensorMeta(b, ws.Gate)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ws.Experts)))
		for _, ts := range ws.Experts {
			b = appendTensorMeta(b, ts)
		}
	}
	// The data is one memory-bound copy, which one core does not saturate:
	// two goroutines, each moving half of every tensor, take 2.1 ms for
	// 21 MB where one takes 3.6 (2-core Xeon).
	base := len(b)
	b = b[:base+8*elems]
	copyHalf := func(second bool) {
		off := base
		forEachTensor(s, func(t *Tensor) {
			h := len(t.Data) / 2
			if second {
				putFloats(b[off+8*h:], t.Data[h:])
			} else {
				putFloats(b[off:], t.Data[:h])
			}
			off += 8 * len(t.Data)
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		copyHalf(true)
	}()
	copyHalf(false)
	<-done
	return append(b, make([]byte, trailerLen)...), nil
}

// nativeLE reports a little-endian host, where a float64 slice's memory is
// already its encoding and a copy moves it.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is d's memory as bytes.
func floatBytes(d []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(d))), 8*len(d))
}

// putFloats writes src as little-endian float64 bits into dst[:8·len(src)].
func putFloats(dst []byte, src []float64) {
	if nativeLE {
		copy(dst, floatBytes(src))
		return
	}
	for k, v := range src {
		binary.LittleEndian.PutUint64(dst[8*k:], math.Float64bits(v))
	}
}

// getFloats is putFloats' inverse: dst from the little-endian bits in src.
func getFloats(dst []float64, src []byte) {
	if nativeLE {
		copy(floatBytes(dst), src)
		return
	}
	for k := range dst {
		dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*k:]))
	}
}

func appendTensorMeta(b []byte, ts []Tensor) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ts)))
	for _, t := range ts {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Name)))
		b = append(b, t.Name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Shape)))
		for _, d := range t.Shape {
			b = binary.LittleEndian.AppendUint64(b, uint64(d))
		}
	}
	return b
}

// measure returns the metadata length and total element count of s's
// encoding, checking that every shape accounts for its tensor's data
// exactly.
func measure(s *Snapshot) (metaLen, elems int, err error) {
	metaLen = 8 + 4
	for i := range s.Worlds {
		ws := &s.Worlds[i]
		metaLen += 8 + 8 + 4 + 16*len(ws.GateRNG) + 4 + 4 + 4*len(ws.Experts)
	}
	forEachTensor(s, func(t *Tensor) {
		if n, ok := product(t.Shape); (!ok || n != len(t.Data)) && err == nil {
			err = fmt.Errorf("ckpt: encode: tensor %q: shape %v does not account for %d elements", t.Name, t.Shape, len(t.Data))
		}
		metaLen += 4 + len(t.Name) + 4 + 8*len(t.Shape)
		elems += len(t.Data)
	})
	return metaLen, elems, err
}

// product is the element count of a shape, false for a negative dim or an
// overflowing product.
func product(shape []int) (int, bool) {
	n := 1
	for _, d := range shape {
		if d < 0 || (d > 0 && n > math.MaxInt/d) {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// forEachTensor visits s's tensors in snapshot order.
func forEachTensor(s *Snapshot, f func(*Tensor)) {
	for i := range s.Worlds {
		ws := &s.Worlds[i]
		for k := range ws.Gate {
			f(&ws.Gate[k])
		}
		for _, ts := range ws.Experts {
			for k := range ts {
				f(&ts[k])
			}
		}
	}
}

// seal writes the CRC-32C of everything before the trailer into it.
func seal(b []byte) {
	end := len(b) - trailerLen
	binary.LittleEndian.PutUint32(b[end:], crc32.Checksum(b[:end], castagnoli))
}

// Decode parses a snapshot, verifying magic, version, lengths, checksum and
// that the metadata accounts for the data before it allocates anything.
// Failures return the typed sentinel errors above (wrapped with detail), so
// callers distinguish "not a checkpoint" from "corrupted checkpoint" from
// "future format".
func Decode(raw []byte) (*Snapshot, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(raw), headerLen)
	}
	if !bytes.Equal(raw[:4], magic[:]) {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, raw[:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, reader version %d", ErrVersion, v, Version)
	}
	if len(raw) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(raw), headerLen)
	}
	metaLen := binary.LittleEndian.Uint64(raw[8:16])
	dataLen := binary.LittleEndian.Uint64(raw[16:24])
	// Subtract from what is present instead of adding the claimed lengths,
	// so a length field near 2^64 reads as truncation: no sum can wrap.
	rest := uint64(len(raw) - headerLen)
	if metaLen > rest || dataLen > rest-metaLen || rest-metaLen-dataLen < trailerLen {
		return nil, fmt.Errorf("%w: header claims %d metadata and %d data bytes, file holds %d past the header",
			ErrTruncated, metaLen, dataLen, rest)
	}
	if extra := rest - metaLen - dataLen - trailerLen; extra != 0 || dataLen%8 != 0 {
		return nil, fmt.Errorf("%w: %d bytes past the trailer, data length %d", ErrMalformed, extra, dataLen)
	}
	end := headerLen + int(metaLen) + int(dataLen)
	want := binary.LittleEndian.Uint32(raw[end:])
	if got := crc32.Checksum(raw[:end], castagnoli); got != want {
		return nil, fmt.Errorf("%w: stored %#x, computed %#x", ErrChecksum, want, got)
	}
	meta, data := raw[headerLen:headerLen+int(metaLen)], raw[headerLen+int(metaLen):end]
	if _, ok := walk(meta, data, false); !ok {
		// The checksum passed, so these are the bytes that were written: a
		// writer bug or a crafted file, not disk corruption.
		return nil, fmt.Errorf("%w: the metadata record does not account for the data", ErrMalformed)
	}
	s, _ := walk(meta, data, true)
	return &s, nil
}

// walk reads a metadata record and the data span it describes. With build
// false it only checks that both parse and that the data is consumed
// exactly, allocating nothing; with build true, after such a check, it
// also returns the snapshot they hold.
func walk(meta, data []byte, build bool) (Snapshot, bool) {
	r := reader{b: meta, data: data, build: build}
	var s Snapshot
	s.Step = int(int64(r.u64()))
	n := r.count()
	s.Worlds = alloc[WorldState](&r, n)
	for i := 0; i < n && !r.bad; i++ {
		var ws WorldState
		ws.Steps = int(int64(r.u64()))
		ws.CollOps = int(int64(r.u64()))
		nrng := r.count()
		ws.GateRNG = alloc[RNGState](&r, nrng)
		for k := 0; k < nrng && !r.bad; k++ {
			st, g := r.u64(), r.u64()
			if build {
				ws.GateRNG[k] = RNGState{State: st, Gamma: g}
			}
		}
		ws.Gate = r.tensors()
		ne := r.count()
		ws.Experts = alloc[[]Tensor](&r, ne)
		for e := 0; e < ne && !r.bad; e++ {
			ts := r.tensors()
			if build {
				ws.Experts[e] = ts
			}
		}
		if build {
			s.Worlds[i] = ws
		}
	}
	return s, !r.bad && len(r.b) == 0 && len(r.data) == 0
}

// reader consumes a metadata record and, tensor by tensor, its data span.
// Any read past either end sets bad and yields zeros from then on.
type reader struct {
	b, data []byte
	build   bool
	bad     bool
}

func (r *reader) take(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *reader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// count reads a uint32 count. Whatever it counts takes at least one byte
// of the record, so a count beyond the bytes left is corrupt: that bounds
// every allocation a count sizes by the record's length.
func (r *reader) count() int {
	p := r.take(4)
	if p == nil {
		return 0
	}
	n := uint64(binary.LittleEndian.Uint32(p))
	if n > uint64(len(r.b)) {
		r.bad = true
		return 0
	}
	return int(n)
}

// tensors reads one tensor list: names and shapes from the record, and for
// each tensor the next shape-product float64s of the data span.
func (r *reader) tensors() []Tensor {
	n := r.count()
	ts := alloc[Tensor](r, n)
	for i := 0; i < n && !r.bad; i++ {
		name := r.take(r.count())
		rank := r.count()
		shape := alloc[int](r, rank)
		avail := uint64(len(r.data) / 8)
		elems := uint64(1)
		for d := 0; d < rank && !r.bad; d++ {
			dim := r.u64()
			if dim != 0 && elems > avail/dim {
				r.bad = true
				break
			}
			elems *= dim
			if r.build {
				shape[d] = int(dim)
			}
		}
		if r.bad || elems > avail {
			r.bad = true
			break
		}
		span := r.data[:8*elems]
		r.data = r.data[8*elems:]
		if r.build {
			ts[i] = Tensor{Name: string(name), Shape: shape, Data: floats(span)}
		}
	}
	return ts
}

// alloc is make([]T, n) on the building walk, nil on the checking one and
// for n = 0.
func alloc[T any](r *reader, n int) []T {
	if !r.build || n == 0 {
		return nil
	}
	return make([]T, n)
}

// floats decodes raw little-endian float64 bits; none decode to nil.
func floats(span []byte) []float64 {
	if len(span) == 0 {
		return nil
	}
	out := make([]float64, len(span)/8)
	getFloats(out, span)
	return out
}

// Save writes s to path atomically and synchronously: temp file in the
// same directory, fsync, rename over path, fsync the directory. A crash
// mid-save leaves path either absent/old or fully written, never torn.
func Save(path string, s *Snapshot) error {
	raw, err := Encode(s)
	if err != nil {
		return err
	}
	return writeAtomic(path, raw)
}

// writeAtomic is Save's commit of already-encoded bytes.
func writeAtomic(path string, raw []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(raw); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: save: fsync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: save: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: save: fsync dir: %w", err)
	}
	return nil
}

// Load reads and verifies a snapshot file.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	s, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", filepath.Base(path), err)
	}
	return s, nil
}
