package dist

import (
	"fmt"

	"boltondp/internal/store"
)

// Source is the coordinator-side description of a training set living
// in a store file: the geometry the shard plan is computed over, plus
// the ability to cut any row range into a shard manifest. Manifests
// reference the reader's path with the CRCs of every chunk each shard
// touches, so workers — which must be able to open the same path
// (shared filesystem, or a local copy at the same location) — prove
// they see byte-identical data before training. An in-memory training
// set goes through a temporary store file (store.Write) first.
type Source struct {
	r *store.Reader
}

// NewStoreSource describes the training set held by r.
func NewStoreSource(r *store.Reader) *Source {
	return &Source{r: r}
}

// Rows returns the total row count m.
func (s *Source) Rows() int { return s.r.Len() }

// Dim returns the feature dimension d.
func (s *Source) Dim() int { return s.r.Dim() }

// manifest cuts rows [lo, hi) into shard's manifest.
func (s *Source) manifest(shard, lo, hi int) (*shardManifest, error) {
	refs, err := s.r.ChunkRefsForRows(lo, hi)
	if err != nil {
		return nil, err
	}
	return &shardManifest{
		Shard: shard, Lo: lo, Hi: hi,
		Store: storeManifest{
			Path:      s.r.Path(),
			Rows:      s.r.Len(),
			Dim:       s.r.Dim(),
			ChunkRows: s.r.ChunkRows(),
			Flags:     s.r.Flags(),
			Chunks:    refs,
		},
	}, nil
}

// openShard opens a manifest's store file on the worker and checks
// everything the manifest claims — geometry, row range, the CRC of
// every chunk the shard touches — before a row is served. The caller
// owns the returned reader.
func openShard(m *shardManifest) (*store.Reader, error) {
	sm := &m.Store
	if m.Lo < 0 || m.Hi <= m.Lo {
		return nil, fmt.Errorf("dist: shard range [%d,%d) invalid", m.Lo, m.Hi)
	}
	r, err := store.Open(sm.Path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*store.Reader, error) {
		r.Close()
		return nil, err
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
	return r, nil
}
