package dist

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"boltondp/internal/data"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
	"boltondp/internal/vec"
)

// Source is the coordinator-side description of a training set: the
// geometry the shard plan is computed over, plus the ability to cut any
// row range into a shard manifest a worker can open and verify. The
// two implementations mirror the repository's two data tiers — a store
// file workers open themselves (manifests are chunk refs, no rows on
// the wire) and in-memory samples shipped inline as CSR payloads.
type Source interface {
	// Rows returns the total row count m.
	Rows() int
	// Dim returns the feature dimension d.
	Dim() int
	// manifest cuts rows [lo, hi) into shard's manifest.
	manifest(shard, lo, hi int) (*ShardManifest, error)
}

// NewStoreSource describes a training set living in a store file. The
// shard manifests reference the reader's path with the CRCs of every
// chunk each shard touches, so workers — which must be able to open the
// same path (shared filesystem, or a local copy at the same location) —
// prove they see byte-identical data before training.
func NewStoreSource(r *store.Reader) Source {
	return &storeSource{r: r}
}

type storeSource struct {
	r *store.Reader
}

func (s *storeSource) Rows() int { return s.r.Len() }
func (s *storeSource) Dim() int  { return s.r.Dim() }

func (s *storeSource) manifest(shard, lo, hi int) (*ShardManifest, error) {
	refs, err := s.r.ChunkRefsForRows(lo, hi)
	if err != nil {
		return nil, err
	}
	return &ShardManifest{
		Shard: shard, Lo: lo, Hi: hi,
		Store: &StoreManifest{
			Path:      s.r.Path(),
			Rows:      s.r.Len(),
			Dim:       s.r.Dim(),
			ChunkRows: s.r.ChunkRows(),
			Flags:     s.r.Flags(),
			Chunks:    refs,
		},
	}, nil
}

// NewInlineSource describes an in-memory training set whose shards are
// shipped to workers inline, as CSR payloads in the store format's
// chunk layout. The payload records which data tier the source
// presents (sparse when it implements sgd.SparseSamples), and the
// worker-side reconstruction presents the same tier, so the
// distributed run executes on the same kernel as its single-process
// counterpart.
func NewInlineSource(s sgd.Samples) Source {
	src := &inlineSource{s: s}
	_, src.sparse = s.(sgd.SparseSamples)
	return src
}

type inlineSource struct {
	s      sgd.Samples
	sparse bool
}

func (s *inlineSource) Rows() int { return s.s.Len() }
func (s *inlineSource) Dim() int  { return s.s.Dim() }

func (s *inlineSource) manifest(shard, lo, hi int) (*ShardManifest, error) {
	if lo < 0 || hi < lo || hi > s.s.Len() {
		return nil, fmt.Errorf("dist: shard range [%d,%d) out of bounds for %d rows", lo, hi, s.s.Len())
	}
	rows := hi - lo
	indptr := make([]int, 1, rows+1)
	var idx []int
	var val, y []float64
	if s.sparse {
		ss := s.s.(sgd.SparseSamples)
		for i := lo; i < hi; i++ {
			sp, yv := ss.AtSparse(i)
			idx = append(idx, sp.Idx...)
			val = append(val, sp.Val...)
			y = append(y, yv)
			indptr = append(indptr, len(idx))
		}
	} else {
		for i := lo; i < hi; i++ {
			x, yv := s.s.At(i)
			for j, v := range x {
				if v != 0 {
					idx = append(idx, j)
					val = append(val, v)
				}
			}
			y = append(y, yv)
			indptr = append(indptr, len(idx))
		}
	}
	payload := encodeCSRPayload(indptr, idx, val, y)
	return &ShardManifest{
		Shard: shard, Lo: lo, Hi: hi,
		Inline: &InlinePayload{
			Rows:   rows,
			NNZ:    len(idx),
			Dim:    s.s.Dim(),
			Sparse: s.sparse,
			B64:    base64.StdEncoding.EncodeToString(payload),
			CRC:    crc32.ChecksumIEEE(payload),
		},
	}, nil
}

// encodeCSRPayload packs a CSR block in the store chunk payload layout:
// val f64[nnz] | y f64[rows] | indptr i64[rows+1] | idx i64[nnz],
// little-endian throughout.
func encodeCSRPayload(indptr, idx []int, val, y []float64) []byte {
	nnz, rows := len(idx), len(y)
	buf := make([]byte, 8*(2*nnz+2*rows+1))
	o := 0
	for _, v := range val {
		binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(v))
		o += 8
	}
	for _, v := range y {
		binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(v))
		o += 8
	}
	for _, v := range indptr {
		binary.LittleEndian.PutUint64(buf[o:], uint64(v))
		o += 8
	}
	for _, v := range idx {
		binary.LittleEndian.PutUint64(buf[o:], uint64(v))
		o += 8
	}
	return buf
}

// decode validates and unpacks an inline payload, failing closed on
// checksum, geometry or CSR-invariant violations — the same discipline
// a store chunk decode applies.
func (p *InlinePayload) decode() (indptr, idx []int, val, y []float64, err error) {
	if p.Rows < 1 || p.NNZ < 0 || p.Dim < 1 {
		return nil, nil, nil, nil, fmt.Errorf("dist: inline shard geometry rows=%d nnz=%d dim=%d invalid", p.Rows, p.NNZ, p.Dim)
	}
	raw, err := base64.StdEncoding.DecodeString(p.B64)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("dist: inline shard payload: %w", err)
	}
	want := 8 * (2*p.NNZ + 2*p.Rows + 1)
	if len(raw) != want {
		return nil, nil, nil, nil, fmt.Errorf("dist: inline shard payload holds %d bytes, want %d", len(raw), want)
	}
	if got := crc32.ChecksumIEEE(raw); got != p.CRC {
		return nil, nil, nil, nil, fmt.Errorf("dist: inline shard checksum mismatch (%08x != %08x)", got, p.CRC)
	}
	val = make([]float64, p.NNZ)
	o := 0
	for i := range val {
		val[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[o:]))
		o += 8
	}
	y = make([]float64, p.Rows)
	for i := range y {
		y[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[o:]))
		o += 8
	}
	indptr = make([]int, p.Rows+1)
	for i := range indptr {
		indptr[i] = int(binary.LittleEndian.Uint64(raw[o:]))
		o += 8
	}
	idx = make([]int, p.NNZ)
	for i := range idx {
		idx[i] = int(binary.LittleEndian.Uint64(raw[o:]))
		o += 8
	}
	prev := 0
	for i, v := range indptr {
		if (i == 0 && v != 0) || v < prev || v > p.NNZ {
			return nil, nil, nil, nil, fmt.Errorf("dist: inline shard row index corrupt at %d", i)
		}
		prev = v
	}
	if prev != p.NNZ {
		return nil, nil, nil, nil, fmt.Errorf("dist: inline shard row index does not cover %d non-zeros", p.NNZ)
	}
	for row := 0; row < p.Rows; row++ {
		last := -1
		for k := indptr[row]; k < indptr[row+1]; k++ {
			v := idx[k]
			if v <= last || v >= p.Dim {
				return nil, nil, nil, nil, fmt.Errorf("dist: inline shard row %d columns out of range or not strictly increasing", row)
			}
			last = v
		}
	}
	return indptr, idx, val, y, nil
}

// ---------------------------------------------------------------------
// Worker-side shard data.
// ---------------------------------------------------------------------

// openShard materializes a manifest's data on the worker: the samples
// to train on, a closer for any underlying file, and the validated
// geometry. Everything the manifest claims is checked before a row is
// served.
func openShard(m *ShardManifest) (s sgd.Samples, closer io.Closer, rows, dim int, err error) {
	switch {
	case (m.Store == nil) == (m.Inline == nil):
		return nil, nil, 0, 0, fmt.Errorf("dist: shard manifest must carry exactly one of store/inline data")
	case m.Lo < 0 || m.Hi <= m.Lo:
		return nil, nil, 0, 0, fmt.Errorf("dist: shard range [%d,%d) invalid", m.Lo, m.Hi)
	case m.Store != nil:
		return openStoreShard(m)
	default:
		return openInlineShard(m)
	}
}

func openStoreShard(m *ShardManifest) (sgd.Samples, io.Closer, int, int, error) {
	sm := m.Store
	r, err := store.Open(sm.Path)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	fail := func(err error) (sgd.Samples, io.Closer, int, int, error) {
		r.Close()
		return nil, nil, 0, 0, err
	}
	if r.Len() != sm.Rows || r.Dim() != sm.Dim || r.ChunkRows() != sm.ChunkRows || r.Flags() != sm.Flags {
		return fail(fmt.Errorf("dist: %s: geometry (rows=%d dim=%d chunkRows=%d flags=%#x) does not match manifest (rows=%d dim=%d chunkRows=%d flags=%#x)",
			sm.Path, r.Len(), r.Dim(), r.ChunkRows(), r.Flags(), sm.Rows, sm.Dim, sm.ChunkRows, sm.Flags))
	}
	if m.Hi > r.Len() {
		return fail(fmt.Errorf("dist: shard range [%d,%d) out of bounds for %d rows", m.Lo, m.Hi, r.Len()))
	}
	for _, ref := range sm.Chunks {
		got, err := r.ChunkRef(ref.Index)
		if err != nil {
			return fail(err)
		}
		if got != ref {
			return fail(fmt.Errorf("dist: %s: chunk %d is (rows=%d crc=%08x), manifest says (rows=%d crc=%08x) — stale or rewritten store file",
				sm.Path, ref.Index, got.Rows, got.CRC, ref.Rows, ref.CRC))
		}
	}
	return r.Shard(m.Lo, m.Hi), r, m.Hi - m.Lo, r.Dim(), nil
}

// openInlineShard rebuilds an inline shard as one of package data's own
// datasets, on the tier the coordinator's source presented: a sparse
// payload becomes a data.SparseDataset, a dense one a data.Dataset, which
// has no AtSparse — so the worker runs the kernel the single-process run
// would.
func openInlineShard(m *ShardManifest) (sgd.Samples, io.Closer, int, int, error) {
	p := m.Inline
	if p.Rows != m.Hi-m.Lo {
		return nil, nil, 0, 0, fmt.Errorf("dist: inline shard holds %d rows, manifest range [%d,%d) wants %d", p.Rows, m.Lo, m.Hi, m.Hi-m.Lo)
	}
	indptr, idx, val, y, err := p.decode()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if p.Sparse {
		ds := data.NewSparseDataset("dist-inline", p.Dim)
		for i, yi := range y {
			lo, hi := indptr[i], indptr[i+1]
			if err := ds.Append(&vec.Sparse{Idx: idx[lo:hi], Val: val[lo:hi]}, yi); err != nil {
				return nil, nil, 0, 0, err
			}
		}
		return ds, nil, p.Rows, p.Dim, nil
	}
	ds := &data.Dataset{X: make([][]float64, p.Rows), Y: y}
	flat := make([]float64, p.Rows*p.Dim)
	for i := range ds.X {
		x := flat[i*p.Dim : (i+1)*p.Dim]
		for k := indptr[i]; k < indptr[i+1]; k++ {
			x[idx[k]] = val[k]
		}
		ds.X[i] = x
	}
	return ds, nil, p.Rows, p.Dim, nil
}
