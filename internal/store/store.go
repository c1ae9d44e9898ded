// Package store is the out-of-core data tier: a compact binary
// columnar dataset format holding labeled sparse rows as a sequence of
// CSR (compressed sparse row) chunks, written once and then trained
// from directly — the on-disk analogue of data.SparseDataset, in the
// spirit of Bismarck's epoch passes over on-disk relations that the
// source paper builds on.
//
// A store file turns "the training set fits in RAM as Go structs" from
// an architectural assumption into a per-run choice: Reader implements
// both tiers of the engine's data contract (sgd.Samples and
// sgd.SparseSamples) plus engine.Sharder, so the Sequential, Sharded
// and Streaming strategies all train straight from disk. A stored row
// is reached one way: a Reader's own rows and every shard of a Reader
// or of a segment Dir go through a cursor per file, whose find is the
// one row → chunk lookup; a shard (a span) is a row range over an
// ordered list of files. A Streaming run over a store is genuinely
// single-pass O(d + chunk) memory at any number of rows.
//
// # File format (little-endian throughout)
//
//	Header   (48 B)  magic "BOLTSTR1", version u32 (= 1), chunkRows u32,
//	                 dim u64, rows u64, classes u32, flags u32,
//	                 crc32(IEEE) u32 over the preceding 40 bytes, pad u32
//	Chunk*           chunkRows rows each (the last chunk holds the
//	                 remainder), as:
//	  ChunkHeader (16 B)  rows u32, nnz u32, payloadLen u32,
//	                      crc32(IEEE) u32 over the payload
//	  Payload             val    f64[nnz]
//	                      y      f64[rows]
//	                      indptr i64[rows+1]  (chunk-local, indptr[0]=0)
//	                      idx    i64[nnz]     (strictly increasing per row)
//	Directory        chunk-header file offsets, u64 per chunk
//	Footer   (48 B)  dirOffset u64, rows u64, nnz u64, chunks u32,
//	                 dirCRC u32 (crc32 over the directory),
//	                 crc32(IEEE) u32 over the preceding 32 bytes, pad u32,
//	                 magic "BOLTEND1"
//
// The layout is designed for zero-decode reads, Arrow-style: every
// section is a native little-endian array of 8-byte elements, and
// because the header (40 B), chunk header (16 B) and every payload are
// multiples of 8 bytes, all sections land 8-byte-aligned in the file.
// On little-endian platforms the Reader memory-maps the file and
// serves rows as slices straight into the mapping — a chunk "decode"
// is a CRC + invariant check the first time a cursor visits the chunk
// and one chunk-table read after that, with no allocation on a
// steady-state scan (TestStoreScanAllocs); what a store-backed training
// epoch costs over an in-memory one is the benchmark's
// store.train_over_mem row. Spending 8 bytes per column index instead of 4
// is the deliberate price of that zero-copy read path. Platforms
// without the mapped fast path fall back to buffered pread + explicit
// decode into reused arenas, bit-identical either way.
//
// The header is written with zero dim/rows at Create and patched at
// Close, so a Writer streams rows of unknown count and dimension in one
// pass (the LIBSVM conversion path). Every read validates fail-closed:
// magic, version, footer/header row agreement, directory CRC and
// monotonicity at Open; chunk CRC, geometry and CSR invariants (indptr
// monotone and nnz-terminated, indices strictly increasing and < dim)
// at every chunk decode. A flipped bit anywhere in the file is an
// error, never a silently wrong model.
//
// Values and labels are stored as raw IEEE-754 bits, so a model trained
// from a store is bit-identical to one trained from the in-memory
// dataset the store was written from — the representation-independence
// invariant DESIGN.md §7 pins (sensitivity calibration depends only on
// (L, β, γ, m, strategy), never on where the bytes live).
//
// flagLabels01 records that the writer was asked to remap
// (Options.RemapLabels01) and saw the label set {0, 1} exactly; the
// reader remaps such labels to ±1 at decode time, matching
// data.LoadLIBSVM's convenience remap without a second pass over the
// file. Without the opt-in, labels round-trip bit-for-bit.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	headerMagic = "BOLTSTR1"
	footerMagic = "BOLTEND1"

	// formatVersion is the one chunk encoding there is: every section a
	// raw 8-byte little-endian array. The header keeps the field so a
	// file from a different encoding is refused, never misread.
	formatVersion = 1

	headerSize      = 48
	chunkHeaderSize = 16
	footerSize      = 48

	// defaultChunkRows is the chunk granularity Writers use unless
	// overridden: large enough that per-chunk costs (one pread, one CRC,
	// four array decodes) amortize to nothing per row, small enough that
	// a cursor's decoded working set stays a few hundred KiB at KDD-like
	// density.
	defaultChunkRows = 4096

	// maxChunkRows bounds what a Reader will accept, so a corrupt
	// header cannot make it allocate an absurd arena.
	maxChunkRows = 1 << 22
)

// flagLabels01 marks a store written under Options.RemapLabels01 whose
// raw labels were exactly {0, 1}; the reader serves them remapped to
// ±1 (the loaders' convenience remap).
const flagLabels01 = 1 << 0

// header is the decoded fixed-size file header.
type header struct {
	chunkRows int
	dim       int
	rows      int
	classes   int
	flags     uint32
}

func (h *header) encode(buf []byte) {
	copy(buf[0:8], headerMagic)
	binary.LittleEndian.PutUint32(buf[8:12], formatVersion)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(h.chunkRows))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(h.dim))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(h.rows))
	binary.LittleEndian.PutUint32(buf[32:36], uint32(h.classes))
	binary.LittleEndian.PutUint32(buf[36:40], h.flags)
	// The fields above are load-bearing for correctness (a flipped
	// flags or dim bit would silently change the served data), so the
	// header carries its own checksum like every chunk does.
	binary.LittleEndian.PutUint32(buf[40:44], crc32.ChecksumIEEE(buf[0:40]))
	binary.LittleEndian.PutUint32(buf[44:48], 0)
}

func decodeHeader(buf []byte) (*header, error) {
	if len(buf) != headerSize {
		return nil, fmt.Errorf("short header (%d bytes)", len(buf))
	}
	if string(buf[0:8]) != headerMagic {
		return nil, fmt.Errorf("bad magic %q (not a store file)", buf[0:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != formatVersion {
		return nil, fmt.Errorf("unsupported format version %d (want %d)", v, formatVersion)
	}
	if got, want := crc32.ChecksumIEEE(buf[0:40]), binary.LittleEndian.Uint32(buf[40:44]); got != want {
		return nil, fmt.Errorf("header checksum mismatch (%08x != %08x)", got, want)
	}
	h := &header{
		chunkRows: int(binary.LittleEndian.Uint32(buf[12:16])),
		dim:       int(binary.LittleEndian.Uint64(buf[16:24])),
		rows:      int(binary.LittleEndian.Uint64(buf[24:32])),
		classes:   int(binary.LittleEndian.Uint32(buf[32:36])),
		flags:     binary.LittleEndian.Uint32(buf[36:40]),
	}
	if h.chunkRows < 1 || h.chunkRows > maxChunkRows {
		return nil, fmt.Errorf("chunk row count %d out of range [1,%d]", h.chunkRows, maxChunkRows)
	}
	if h.dim < 1 {
		return nil, fmt.Errorf("dimension %d < 1", h.dim)
	}
	if h.rows < 1 {
		return nil, fmt.Errorf("row count %d < 1", h.rows)
	}
	return h, nil
}

// footer is the decoded fixed-size file trailer.
type footer struct {
	dirOffset int64
	rows      int
	nnz       int64
	chunks    int
	dirCRC    uint32
}

func (f *footer) encode(buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(f.dirOffset))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(f.rows))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(f.nnz))
	binary.LittleEndian.PutUint32(buf[24:28], uint32(f.chunks))
	binary.LittleEndian.PutUint32(buf[28:32], f.dirCRC)
	binary.LittleEndian.PutUint32(buf[32:36], crc32.ChecksumIEEE(buf[0:32]))
	binary.LittleEndian.PutUint32(buf[36:40], 0)
	copy(buf[40:48], footerMagic)
}

func decodeFooter(buf []byte) (*footer, error) {
	if len(buf) != footerSize {
		return nil, fmt.Errorf("short footer (%d bytes)", len(buf))
	}
	if string(buf[40:48]) != footerMagic {
		return nil, fmt.Errorf("bad footer magic %q (truncated or overwritten file)", buf[40:48])
	}
	if got, want := crc32.ChecksumIEEE(buf[0:32]), binary.LittleEndian.Uint32(buf[32:36]); got != want {
		return nil, fmt.Errorf("footer checksum mismatch (%08x != %08x)", got, want)
	}
	f := &footer{
		dirOffset: int64(binary.LittleEndian.Uint64(buf[0:8])),
		rows:      int(binary.LittleEndian.Uint64(buf[8:16])),
		nnz:       int64(binary.LittleEndian.Uint64(buf[16:24])),
		chunks:    int(binary.LittleEndian.Uint32(buf[24:28])),
		dirCRC:    binary.LittleEndian.Uint32(buf[28:32]),
	}
	if f.dirOffset < headerSize {
		return nil, fmt.Errorf("directory offset %d inside header", f.dirOffset)
	}
	if f.chunks < 1 {
		return nil, fmt.Errorf("chunk count %d < 1", f.chunks)
	}
	if f.rows < 1 {
		return nil, fmt.Errorf("footer row count %d < 1", f.rows)
	}
	return f, nil
}

// payloadLen returns the byte length of a chunk payload with the given
// geometry: val f64[nnz] + y f64[rows] + indptr i64[rows+1] +
// idx i64[nnz], all 8-byte elements.
func payloadLen(rows, nnz int) int {
	return 8 * (2*nnz + 2*rows + 1)
}

// putF64 appends v's IEEE-754 bits.
func putF64(buf []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(buf[off:off+8], math.Float64bits(v))
}

// getF64 reads IEEE-754 bits at off.
func getF64(buf []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off : off+8]))
}
