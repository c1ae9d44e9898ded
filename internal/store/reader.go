package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// Reader is a random-access view of a store file implementing both
// tiers of the engine's data contract (sgd.Samples, sgd.SparseSamples)
// plus engine.Sharder, so every execution strategy trains from it
// directly. Every row access finds its chunk the same way, by one
// division (cursor.find), in any access order.
//
// On little-endian 64-bit unix hosts the file is memory-mapped and
// rows are served as slices straight into the mapping: a chunk is CRC-
// and invariant-checked the first time a cursor visits it, and every
// later access to it is one read of the cursor's chunk table.
// Elsewhere chunks are pread and decoded into a reused arena whenever
// the accessed chunk changes — once per chunk on a scan, once per
// chunk crossing under a permutation. Training is bit-identical either
// way.
//
// Like the other reused-buffer sources (bismarck.Table,
// data.SparseDataset), a Reader must not be shared across concurrent
// runs; the sharded engine goes through Shard, which hands each worker
// an independent span over the same file handle (reads are pread /
// read-only mapping accesses and never race).
//
// At and AtSparse implement interfaces without error returns, so on
// I/O failure or corruption detected mid-training they panic with the
// underlying error; every chunk is CRC- and invariant-checked before
// any of its rows are served, so a bad byte surfaces as that panic (or
// as an error from the error-returning ChunkCSR / Verify paths), never
// as a silently wrong row.
type Reader struct {
	f    *os.File
	path string
	mm   []byte // whole-file mapping; nil selects the pread fallback

	hdr       header
	nnz       int64
	chunks    int
	dirOffset int64
	offsets   []int64

	cur cursor
}

// Open validates path's header, footer and chunk directory and returns
// a Reader over it. Chunk payloads are validated lazily, CRC first, as
// they are first visited.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	r, err := newReader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func newReader(f *os.File, path string) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	size := st.Size()
	if size < headerSize+chunkHeaderSize+footerSize {
		return nil, fmt.Errorf("store: %s: file too short (%d bytes)", path, size)
	}

	var hbuf [headerSize]byte
	if _, err := f.ReadAt(hbuf[:], 0); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	hdr, err := decodeHeader(hbuf[:])
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}

	var fbuf [footerSize]byte
	if _, err := f.ReadAt(fbuf[:], size-footerSize); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	ft, err := decodeFooter(fbuf[:])
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if ft.rows != hdr.rows {
		return nil, fmt.Errorf("store: %s: footer row count %d != header %d (interrupted write?)", path, ft.rows, hdr.rows)
	}
	wantChunks := (hdr.rows + hdr.chunkRows - 1) / hdr.chunkRows
	if ft.chunks != wantChunks {
		return nil, fmt.Errorf("store: %s: %d chunks recorded, want %d for %d rows of %d", path, ft.chunks, wantChunks, hdr.rows, hdr.chunkRows)
	}
	if ft.dirOffset+int64(8*ft.chunks)+footerSize != size {
		return nil, fmt.Errorf("store: %s: directory does not reach the footer (truncated or overwritten file)", path)
	}

	dir := make([]byte, 8*ft.chunks)
	if _, err := f.ReadAt(dir, ft.dirOffset); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if crc := crc32.ChecksumIEEE(dir); crc != ft.dirCRC {
		return nil, fmt.Errorf("store: %s: directory checksum mismatch (%08x != %08x)", path, crc, ft.dirCRC)
	}
	offsets := make([]int64, ft.chunks)
	prev := int64(headerSize - 1)
	for i := range offsets {
		off := int64(binary.LittleEndian.Uint64(dir[8*i : 8*i+8]))
		if off <= prev || off+chunkHeaderSize > ft.dirOffset {
			return nil, fmt.Errorf("store: %s: chunk %d offset %d out of order or out of bounds", path, i, off)
		}
		if off%8 != 0 {
			// A format invariant, not just a corruption check: section
			// alignment is what licenses the mapped zero-copy path.
			return nil, fmt.Errorf("store: %s: chunk %d offset %d not 8-byte aligned", path, i, off)
		}
		offsets[i] = off
		prev = off
	}

	r := &Reader{
		f: f, path: path,
		hdr: *hdr, nnz: ft.nnz, chunks: ft.chunks,
		dirOffset: ft.dirOffset, offsets: offsets,
	}
	r.mm = mapFile(f, size)
	r.cur.init(r)
	return r, nil
}

// Close releases the file handle and mapping. Spans handed out by
// Shard share them and become invalid.
func (r *Reader) Close() error {
	unmapFile(r.mm)
	r.mm = nil
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Path returns the file path the reader was opened from.
func (r *Reader) Path() string { return r.path }

// Len implements sgd.Samples.
func (r *Reader) Len() int { return r.hdr.rows }

// Dim implements sgd.Samples.
func (r *Reader) Dim() int { return r.hdr.dim }

// Classes returns the recorded class count (0 when the writer saw too
// many distinct labels to count).
func (r *Reader) Classes() int { return r.hdr.classes }

// Chunks returns the number of chunks in the file.
func (r *Reader) Chunks() int { return r.chunks }

// ChunkRows returns the rows-per-chunk geometry (every chunk but the
// last holds exactly this many rows).
func (r *Reader) ChunkRows() int { return r.hdr.chunkRows }

// NNZ returns the total stored non-zeros.
func (r *Reader) NNZ() int64 { return r.nnz }

// Density returns NNZ / (rows·dim).
func (r *Reader) Density() float64 {
	return float64(r.nnz) / (float64(r.hdr.rows) * float64(r.hdr.dim))
}

// At implements sgd.Samples (the dense tier): row i scattered into a
// reused scratch buffer, valid until the next At call. It panics on
// I/O failure or corruption (see the type comment).
func (r *Reader) At(i int) ([]float64, float64) { return r.cur.at(i) }

// AtSparse implements sgd.SparseSamples: a view of row i, valid until
// the next AtSparse call. It panics on I/O failure or corruption (see
// the type comment).
func (r *Reader) AtSparse(i int) (*vec.Sparse, float64) { return r.cur.atSparse(i) }

// Touch is the epoch loops' look-ahead hint; see cursor.touch.
func (r *Reader) Touch(i int) float64 { return r.cur.touch(i) }

// Shard implements engine.Sharder: rows [lo, hi) as a span with its
// own cursor over the shared file, so shards of one store can be
// scanned concurrently by the sharded engine. span.Shard checks the
// range; the whole-file span it is cut from holds no cursor.
func (r *Reader) Shard(lo, hi int) sgd.Samples {
	return (&span{files: []*Reader{r}, hi: r.hdr.rows}).Shard(lo, hi)
}

// ChunkCSR loads chunk c and returns views of its CSR block:
// chunk-local indptr (indptr[0] = 0), column indices, values and
// labels. The slices are read-only and valid until the next access
// through the same Reader. Unlike At, it reports corruption as an
// error — the form the fuzz harness and batch scorers consume. The
// chunk's rows are global rows [c·ChunkRows, c·ChunkRows+len(y)).
func (r *Reader) ChunkCSR(c int) (indptr, idx []int, val, y []float64, err error) {
	if c < 0 || c >= r.chunks {
		return nil, nil, nil, nil, fmt.Errorf("store: chunk %d out of range [0,%d)", c, r.chunks)
	}
	e, err := r.cur.chunk(c)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	y = e.y
	if r.hdr.flags&flagLabels01 != 0 { // serving form: the one copy (the mapping is read-only)
		y = append(r.cur.yArena[:0], y...)
		for i, v := range y {
			y[i] = r.cur.label(v)
		}
		r.cur.yArena = y
	}
	return e.indptr, e.idx, e.val, y, nil
}

// Verify loads every chunk, validating all checksums and CSR
// invariants — the eager integrity check for a freshly converted or
// untrusted file.
func (r *Reader) Verify() error {
	for c := 0; c < r.chunks; c++ {
		if _, _, _, _, err := r.ChunkCSR(c); err != nil {
			return err
		}
	}
	return nil
}

// span is rows [lo, hi) of the concatenation of files, read as one
// dataset: what Reader.Shard and Dir.Shard return, and a Dir's own row
// access. Each file the range covers gets a part with its own cursor,
// so spans cut from the same files scan concurrently.
type span struct {
	files  []*Reader
	lo, hi int // rows of the concatenation
	parts  []part
}

// part is a span's piece of one file: span row i < end is row i+shift
// of the file.
type part struct {
	cur        cursor
	end, shift int
}

func newSpan(files []*Reader, lo, hi int) *span {
	s := &span{files: files, lo: lo, hi: hi}
	start := 0 // the file's first row in the concatenation
	for _, r := range files {
		end := start + r.hdr.rows
		if max(lo, start) < min(hi, end) {
			p := part{end: min(hi, end) - lo, shift: lo - start}
			p.cur.init(r)
			s.parts = append(s.parts, p)
		}
		start = end
	}
	return s
}

func (s *span) Len() int { return s.hi - s.lo }

func (s *span) Dim() int {
	if len(s.files) == 0 {
		return 0
	}
	return s.files[0].hdr.dim
}

// locate returns the part holding span row i and i's row in the
// part's file. Spans cover few files, so the part ends are scanned in
// order.
func (s *span) locate(i int) (*part, int) {
	if uint(i) >= uint(s.hi-s.lo) {
		panic(fmt.Sprintf("store: row %d out of range [0,%d)", i, s.hi-s.lo))
	}
	k := 0
	for i >= s.parts[k].end {
		k++
	}
	return &s.parts[k], i + s.parts[k].shift
}

func (s *span) At(i int) ([]float64, float64) {
	p, j := s.locate(i)
	return p.cur.at(j)
}

func (s *span) AtSparse(i int) (*vec.Sparse, float64) {
	p, j := s.locate(i)
	return p.cur.atSparse(j)
}

func (s *span) Touch(i int) float64 {
	p, j := s.locate(i)
	return p.cur.touch(j)
}

// Shard implements engine.Sharder: rows [lo, hi) of the span, cut again
// from the files so that nested shards get fresh cursors too.
func (s *span) Shard(lo, hi int) sgd.Samples {
	if lo < 0 || hi < lo || hi > s.hi-s.lo {
		panic(fmt.Sprintf("store: shard [%d,%d) out of bounds for %d rows", lo, hi, s.hi-s.lo))
	}
	return newSpan(s.files, s.lo+lo, s.lo+hi)
}

// cursor reads the rows of one store file for one reader of them (a
// Reader itself, or a span part). With a mapping, tab is its chunk
// table: entry n holds chunk n's CSR slices into the mapping once this
// cursor has verified the chunk, so every later access to it is one
// read of the entry — no work per row, no allocation per chunk (gated
// by TestStoreScanAllocs). Without one, tab is nil and the arena holds
// the last chunk pread and decoded.
type cursor struct {
	r   *Reader
	tab []chunkCSR

	n      int // the chunk decoded in arena, -1 when none
	arena  chunkCSR
	raw    []byte    // the arena's payload buffer
	yArena []float64 // ChunkCSR's remapped label copy (flagLabels01)

	scratch []float64 // dense At tier, allocated on first use
	row     vec.Sparse
}

// chunkCSR is one chunk's CSR block; y holds the labels as stored.
type chunkCSR struct {
	indptr, idx []int
	val, y      []float64
}

func (c *cursor) init(r *Reader) {
	*c = cursor{r: r, n: -1}
	if r.mm != nil {
		c.tab = make([]chunkCSR, r.chunks)
	}
}

// chunkGeom reads and validates chunk n's header, returning its row
// count, nnz, payload length and CRC.
func (r *Reader) chunkGeom(n int, hbuf []byte) (rows, nnz, plen int, crc uint32, err error) {
	rows = int(binary.LittleEndian.Uint32(hbuf[0:4]))
	nnz = int(binary.LittleEndian.Uint32(hbuf[4:8]))
	plen = int(binary.LittleEndian.Uint32(hbuf[8:12]))
	crc = binary.LittleEndian.Uint32(hbuf[12:16])

	wantRows := r.hdr.chunkRows
	if n == r.chunks-1 {
		wantRows = r.hdr.rows - (r.chunks-1)*r.hdr.chunkRows
	}
	if rows != wantRows {
		return 0, 0, 0, 0, fmt.Errorf("store: %s: chunk %d holds %d rows, want %d", r.path, n, rows, wantRows)
	}
	if plen != payloadLen(rows, nnz) {
		return 0, 0, 0, 0, fmt.Errorf("store: %s: chunk %d payload length %d inconsistent with %d rows / %d nnz", r.path, n, plen, rows, nnz)
	}
	if r.offsets[n]+chunkHeaderSize+int64(plen) > r.dirOffset {
		return 0, 0, 0, 0, fmt.Errorf("store: %s: chunk %d payload overruns the directory", r.path, n)
	}
	return rows, nnz, plen, crc, nil
}

// validateCSR checks the decoded (or aliased) CSR block's invariants:
// indptr monotone from 0 to nnz, indices in [0, dim) and strictly
// increasing within each row.
func (r *Reader) validateCSR(n, rows, nnz int, indptr, idx []int) error {
	prev := 0
	for i, v := range indptr {
		if (i == 0 && v != 0) || v < prev || v > nnz {
			return fmt.Errorf("store: %s: chunk %d: corrupt row index at %d", r.path, n, i)
		}
		prev = v
	}
	if prev != nnz {
		return fmt.Errorf("store: %s: chunk %d: row index does not cover %d non-zeros", r.path, n, nnz)
	}
	for row := 0; row < rows; row++ {
		p := -1
		for k := indptr[row]; k < indptr[row+1]; k++ {
			v := idx[k]
			if v <= p || v >= r.hdr.dim {
				return fmt.Errorf("store: %s: chunk %d: row %d columns out of range or not strictly increasing", r.path, n, row)
			}
			p = v
		}
	}
	return nil
}

// find is the one row → chunk lookup: the chunk holding row i and the
// row's index inside it. It panics on a row outside the file or a chunk
// that fails its checks (see the Reader type comment).
func (c *cursor) find(i int) (*chunkCSR, int) {
	r := c.r
	if uint(i) >= uint(r.hdr.rows) {
		panic(fmt.Sprintf("store: row %d out of range [0,%d)", i, r.hdr.rows))
	}
	n := i / r.hdr.chunkRows
	e, err := c.chunk(n)
	if err != nil {
		panic(err)
	}
	return e, i - n*r.hdr.chunkRows
}

// chunk returns chunk n's CSR block: with a mapping, the chunk table's
// entry, verified on this cursor's first visit; without one, the
// arena, decoded again only when n changes.
func (c *cursor) chunk(n int) (*chunkCSR, error) {
	if c.tab != nil {
		if e := &c.tab[n]; e.indptr != nil {
			return e, nil
		}
		return c.loadMapped(n)
	}
	if c.n == n {
		return &c.arena, nil
	}
	return c.loadArena(n)
}

// loadMapped checks chunk n inside the file mapping — CRC, then CSR
// invariants — and files its slices, which alias the mapping, in the
// chunk table.
func (c *cursor) loadMapped(n int) (*chunkCSR, error) {
	r := c.r
	off := r.offsets[n]
	rows, nnz, plen, crc, err := r.chunkGeom(n, r.mm[off:off+chunkHeaderSize])
	if err != nil {
		return nil, err
	}
	p := r.mm[off+chunkHeaderSize : off+chunkHeaderSize+int64(plen)]
	indptr := asInt(p[8*(nnz+rows) : 8*(nnz+rows+rows+1)])
	idx := asInt(p[8*(nnz+rows+rows+1):])
	if got := crc32.ChecksumIEEE(p); got != crc {
		return nil, fmt.Errorf("store: %s: chunk %d checksum mismatch (%08x != %08x)", r.path, n, got, crc)
	}
	if err := r.validateCSR(n, rows, nnz, indptr, idx); err != nil {
		return nil, err
	}
	c.tab[n] = chunkCSR{indptr: indptr, idx: idx, val: asF64(p[:8*nnz]), y: asF64(p[8*nnz : 8*(nnz+rows)])}
	return &c.tab[n], nil
}

// loadArena is the portable fallback: pread chunk n and decode it into
// the cursor's reused arena, validating CRC and invariants on every
// load.
func (c *cursor) loadArena(n int) (*chunkCSR, error) {
	r := c.r
	var hbuf [chunkHeaderSize]byte
	if _, err := r.f.ReadAt(hbuf[:], r.offsets[n]); err != nil {
		return nil, fmt.Errorf("store: %s: chunk %d: %w", r.path, n, err)
	}
	rows, nnz, plen, crc, err := r.chunkGeom(n, hbuf[:])
	if err != nil {
		return nil, err
	}
	if cap(c.raw) < plen {
		c.raw = make([]byte, plen)
	}
	p := c.raw[:plen]
	if _, err := r.f.ReadAt(p, r.offsets[n]+chunkHeaderSize); err != nil {
		return nil, fmt.Errorf("store: %s: chunk %d: %w", r.path, n, err)
	}
	if got := crc32.ChecksumIEEE(p); got != crc {
		return nil, fmt.Errorf("store: %s: chunk %d checksum mismatch (%08x != %08x)", r.path, n, got, crc)
	}

	// Invalidate before decoding so a failed load can never be served.
	c.n = -1
	a := &c.arena
	if cap(a.val) < nnz {
		a.val = make([]float64, nnz)
	}
	a.val = a.val[:nnz]
	o := 0
	for i := 0; i < nnz; i++ {
		a.val[i] = getF64(p, o)
		o += 8
	}
	if cap(a.y) < rows {
		a.y = make([]float64, rows)
	}
	a.y = a.y[:rows]
	for i := 0; i < rows; i++ {
		a.y[i] = getF64(p, o)
		o += 8
	}
	if cap(a.indptr) < rows+1 {
		a.indptr = make([]int, rows+1)
	}
	a.indptr = a.indptr[:rows+1]
	for i := 0; i <= rows; i++ {
		a.indptr[i] = int(binary.LittleEndian.Uint64(p[o : o+8]))
		o += 8
	}
	if cap(a.idx) < nnz {
		a.idx = make([]int, nnz)
	}
	a.idx = a.idx[:nnz]
	for i := 0; i < nnz; i++ {
		a.idx[i] = int(binary.LittleEndian.Uint64(p[o : o+8]))
		o += 8
	}
	if err := r.validateCSR(n, rows, nnz, a.indptr, a.idx); err != nil {
		return nil, err
	}
	c.n = n
	return a, nil
}

func (c *cursor) atSparse(i int) (*vec.Sparse, float64) {
	e, j := c.find(i)
	lo, hi := e.indptr[j], e.indptr[j+1]
	c.row.Idx = e.idx[lo:hi]
	c.row.Val = e.val[lo:hi]
	return &c.row, c.label(e.y[j])
}

// label returns a stored label in serving form: a flagLabels01 store
// serves ±1, remapping the one label a row access returns.
func (c *cursor) label(y float64) float64 {
	if c.r.hdr.flags&flagLabels01 != 0 {
		return 2*y - 1
	}
	return y
}

// touch is the look-ahead hint (sgd's Touch contract): row i's indptr,
// label and idx/val lines, read off the chunk table without loading
// anything. A chunk this cursor has not verified (so every row without
// a mapping) returns 0 untouched: its first visit reads every byte
// anyway.
func (c *cursor) touch(i int) float64 {
	n := i / c.r.hdr.chunkRows
	if uint(n) >= uint(len(c.tab)) || c.tab[n].indptr == nil {
		return 0
	}
	e, j := &c.tab[n], i-n*c.r.hdr.chunkRows
	lo, hi := e.indptr[j], e.indptr[j+1]
	return e.y[j] + vec.TouchSparse(e.idx[lo:hi], e.val[lo:hi])
}

func (c *cursor) at(i int) ([]float64, float64) {
	e, j := c.find(i)
	if c.scratch == nil {
		c.scratch = make([]float64, c.r.hdr.dim)
	}
	for k := range c.scratch {
		c.scratch[k] = 0
	}
	for k := e.indptr[j]; k < e.indptr[j+1]; k++ {
		c.scratch[e.idx[k]] = e.val[k]
	}
	return c.scratch, c.label(e.y[j])
}
