package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// Options configures a Writer.
type Options struct {
	// ChunkRows is the number of rows per chunk (default 4096). Every
	// chunk but the last holds exactly this many rows — the invariant
	// that makes row → chunk lookup O(1).
	ChunkRows int

	// Classes, when positive, overrides the class count recorded in the
	// header. When zero the writer infers it from the distinct labels
	// it sees, exactly as the LIBSVM loaders do.
	Classes int

	// RemapLabels01, when set, records flagLabels01 if the appended
	// label set turns out to be exactly {0, 1}, making the reader serve
	// those labels remapped to ±1. It exists for conversion paths that
	// write raw, never-loaded labels (dpsgd -cache) and want the
	// LIBSVM loaders' convenience remap without a second pass. It is
	// deliberately opt-in: a plain Write must round-trip labels
	// bit-for-bit, whatever they are.
	RemapLabels01 bool
}

func (o Options) withDefaults() (Options, error) {
	if o.ChunkRows == 0 {
		o.ChunkRows = defaultChunkRows
	}
	if o.ChunkRows < 1 || o.ChunkRows > maxChunkRows {
		return o, fmt.Errorf("store: ChunkRows %d out of range [1,%d]", o.ChunkRows, maxChunkRows)
	}
	if o.Classes < 0 {
		return o, fmt.Errorf("store: Classes %d < 0", o.Classes)
	}
	return o, nil
}

// maxTrackedLabels caps the writer's distinct-label tracking; past it
// the class count is recorded as unknown (0) rather than growing a map
// without bound on regression-style labels.
const maxTrackedLabels = 1024

// Writer streams labeled sparse rows into a store file in one pass.
// Rows arrive through Append in their final order; Close writes the
// chunk directory and footer and patches the header with the totals
// (row count, dimension, class count) that are only known at the end,
// so neither the row count nor the dimension needs to be declared up
// front — the property the streaming LIBSVM conversion relies on.
//
// A Writer is single-goroutine; it holds one chunk of buffered rows
// (O(ChunkRows · row nnz) memory) and never the whole dataset.
type Writer struct {
	f   *os.File
	bw  *bufio.Writer
	off int64 // file offset of the next chunk header

	opt    Options
	dim    int // max index seen + 1 (or SetDim floor)
	rows   int
	nnz    int64
	closed bool

	// Current chunk accumulators.
	indptr []int
	idx    []int
	val    []float64
	y      []float64

	offsets []int64 // chunk-header offsets (the directory)
	payload []byte  // reused chunk encode buffer

	labels   map[float64]struct{}
	overflow bool // more than maxTrackedLabels distinct labels
}

// Create opens path for writing (truncating any existing file) and
// returns a Writer positioned at the first row.
func Create(path string, opt Options) (*Writer, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &Writer{
		f:      f,
		bw:     bufio.NewWriterSize(f, 1<<20),
		off:    headerSize,
		opt:    opt,
		indptr: make([]int, 1, opt.ChunkRows+1),
		labels: make(map[float64]struct{}),
	}
	// Placeholder header; Close patches the final dim/rows/classes in.
	var hdr [headerSize]byte
	(&header{chunkRows: opt.ChunkRows, dim: 1, rows: 1}).encode(hdr[:])
	if _, err := w.bw.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return w, nil
}

// SetDim raises the recorded dimension floor: the final dimension is
// the larger of this and (max index seen + 1). Use it when the logical
// dimension exceeds the largest populated column.
func (w *Writer) SetDim(d int) {
	if d > w.dim {
		w.dim = d
	}
}

// Rows returns the number of rows appended so far.
func (w *Writer) Rows() int { return w.rows }

// NNZ returns the total non-zeros appended so far.
func (w *Writer) NNZ() int64 { return w.nnz }

// Dim returns the dimension as currently known (max index seen + 1, or
// the SetDim floor).
func (w *Writer) Dim() int { return w.dim }

// Density returns NNZ / (rows·dim) over what has been appended so far
// — the same estimate data.SparseDataset.Density reports, available
// after the single conversion pass without re-reading anything.
func (w *Writer) Density() float64 {
	if w.rows == 0 || w.dim == 0 {
		return 0
	}
	return float64(w.nnz) / (float64(w.rows) * float64(w.dim))
}

// Append adds one row. The row's indices must be strictly increasing
// and non-negative (the vec.Sparse contract — validated here so a
// malformed row fails the conversion, not a later training run).
func (w *Writer) Append(x *vec.Sparse, yv float64) error {
	if w.closed {
		return fmt.Errorf("store: Append after Close")
	}
	if len(x.Idx) != len(x.Val) {
		return fmt.Errorf("store: row %d: index/value length mismatch %d != %d", w.rows, len(x.Idx), len(x.Val))
	}
	prev := -1
	for _, ix := range x.Idx {
		if ix <= prev {
			return fmt.Errorf("store: row %d: indices not strictly increasing at %d", w.rows, ix)
		}
		prev = ix
	}
	if prev >= w.dim {
		w.dim = prev + 1
	}
	w.idx = append(w.idx, x.Idx...)
	w.val = append(w.val, x.Val...)
	w.indptr = append(w.indptr, len(w.idx))
	w.y = append(w.y, yv)
	w.rows++
	w.nnz += int64(len(x.Idx))
	if !w.overflow {
		w.labels[yv] = struct{}{}
		if len(w.labels) > maxTrackedLabels {
			w.overflow = true
			w.labels = nil
		}
	}
	if len(w.y) == w.opt.ChunkRows {
		return w.flushChunk()
	}
	return nil
}

// flushChunk encodes and writes the buffered rows as one chunk.
func (w *Writer) flushChunk() error {
	rows := len(w.y)
	if rows == 0 {
		return nil
	}
	nnz := len(w.idx)
	plen := payloadLen(rows, nnz)
	if int64(plen) > math.MaxUint32 {
		return fmt.Errorf("store: chunk of %d rows holds %d non-zeros, exceeding the format; lower ChunkRows", rows, nnz)
	}
	p := w.encodeChunk(plen)

	var hdr [chunkHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(nnz))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(plen))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(p))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := w.bw.Write(p); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.offsets = append(w.offsets, w.off)
	w.off += int64(chunkHeaderSize + plen)

	w.indptr = w.indptr[:1]
	w.idx = w.idx[:0]
	w.val = w.val[:0]
	w.y = w.y[:0]
	return nil
}

// encodeChunk encodes the buffered rows into the reused payload buffer:
// four raw 8-byte little-endian arrays.
func (w *Writer) encodeChunk(plen int) []byte {
	if cap(w.payload) < plen {
		w.payload = make([]byte, plen)
	}
	p := w.payload[:plen]
	o := 0
	for _, v := range w.val {
		putF64(p, o, v)
		o += 8
	}
	for _, v := range w.y {
		putF64(p, o, v)
		o += 8
	}
	for _, v := range w.indptr {
		binary.LittleEndian.PutUint64(p[o:o+8], uint64(v))
		o += 8
	}
	for _, v := range w.idx {
		binary.LittleEndian.PutUint64(p[o:o+8], uint64(v))
		o += 8
	}
	return p
}

// classCount resolves the class count the header records: the explicit
// option, the distinct-label count (min 2, as the loaders report), or
// 0 when tracking overflowed.
func (w *Writer) classCount() int {
	if w.opt.Classes > 0 {
		return w.opt.Classes
	}
	if w.overflow {
		return 0
	}
	c := len(w.labels)
	if c < 2 {
		c = 2
	}
	return c
}

// labels01 reports whether the remap flag should be recorded: the
// caller opted in and the raw label set is exactly {0, 1}.
func (w *Writer) labels01() bool {
	if !w.opt.RemapLabels01 || w.overflow || len(w.labels) != 2 {
		return false
	}
	_, has0 := w.labels[0]
	_, has1 := w.labels[1]
	return has0 && has1
}

// Abort discards the conversion: it closes the file handle without
// finalizing the store and removes the partial file. For error paths;
// a successful conversion ends with Close.
func (w *Writer) Abort() {
	if !w.closed {
		w.closed = true
		w.f.Close()
	}
	os.Remove(w.f.Name())
}

// Close flushes the final chunk, writes the directory and footer,
// patches the header with the final totals and syncs the file. A store
// with zero rows is an error (mirroring the loaders' "no examples").
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	defer w.f.Close()
	if err := w.flushChunk(); err != nil {
		return err
	}
	if w.rows == 0 {
		return fmt.Errorf("store: no examples")
	}

	dir := make([]byte, 8*len(w.offsets))
	for i, off := range w.offsets {
		binary.LittleEndian.PutUint64(dir[8*i:8*i+8], uint64(off))
	}
	if _, err := w.bw.Write(dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	ft := footer{
		dirOffset: w.off,
		rows:      w.rows,
		nnz:       w.nnz,
		chunks:    len(w.offsets),
		dirCRC:    crc32.ChecksumIEEE(dir),
	}
	var fbuf [footerSize]byte
	ft.encode(fbuf[:])
	if _, err := w.bw.Write(fbuf[:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	var flags uint32
	if w.labels01() {
		flags |= flagLabels01
	}
	var hdr [headerSize]byte
	(&header{
		chunkRows: w.opt.ChunkRows,
		dim:       w.dim,
		rows:      w.rows,
		classes:   w.classCount(),
		flags:     flags,
	}).encode(hdr[:])
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Write converts any sparse-tier sample source into a store file in
// one sequential pass — the bulk form of Create/Append/Close. The
// source's rows are written in their natural order, so a model trained
// from the resulting store is bit-identical to one trained from src
// under the same configuration and seed.
func Write(path string, src sgd.SparseSamples, opt Options) error {
	w, err := Create(path, opt)
	if err != nil {
		return err
	}
	w.SetDim(src.Dim())
	m := src.Len()
	for i := 0; i < m; i++ {
		x, yv := src.AtSparse(i)
		if err := w.Append(x, yv); err != nil {
			w.Abort()
			return err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}
