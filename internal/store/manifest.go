package store

import "fmt"

// ChunkRef identifies one chunk of a store file for cross-process
// manifests: its index, the rows it holds, and the CRC32 recorded in
// its header. A distributed shard manifest (internal/dist) carries the
// refs of every chunk its row range touches, so a worker opening the
// same path can prove — before training a single row — that it is
// looking at byte-identical data, not a stale or rewritten file under
// the same name. The integrity check is fail-closed on both ends: the
// coordinator reads the refs through the reader's validated directory,
// and the worker refuses a shard whose refs do not match its own file.
type ChunkRef struct {
	// Index is the chunk's position in the file.
	Index int `json:"index"`
	// Rows is the number of rows the chunk holds.
	Rows int `json:"rows"`
	// CRC is the CRC32 (IEEE) over the chunk payload, as recorded in
	// the chunk header.
	CRC uint32 `json:"crc"`
}

// Flags returns the header flag bits (flagLabels01 and future flags) —
// part of a file's manifest identity: two files that differ only in
// flags serve different labels from identical payload bytes.
func (r *Reader) Flags() uint32 { return r.hdr.flags }

// ChunkRef returns the manifest reference of chunk c. Only the 16-byte
// chunk header is read; the payload's checksum is the one the header
// records (payload bytes are verified against it whenever the chunk is
// decoded, so a ref mismatch and a corrupt payload are both errors,
// never silently wrong data).
func (r *Reader) ChunkRef(c int) (ChunkRef, error) {
	if c < 0 || c >= r.chunks {
		return ChunkRef{}, fmt.Errorf("store: chunk %d out of range [0,%d)", c, r.chunks)
	}
	var hbuf [chunkHeaderSize]byte
	if r.mm != nil {
		copy(hbuf[:], r.mm[r.offsets[c]:r.offsets[c]+chunkHeaderSize])
	} else if _, err := r.f.ReadAt(hbuf[:], r.offsets[c]); err != nil {
		return ChunkRef{}, fmt.Errorf("store: %s: chunk %d: %w", r.path, c, err)
	}
	rows, _, _, crc, err := r.chunkGeom(c, hbuf[:])
	if err != nil {
		return ChunkRef{}, err
	}
	return ChunkRef{Index: c, Rows: rows, CRC: crc}, nil
}

// ChunkRefsForRows returns the refs of every chunk overlapping the
// global row range [lo, hi) — the chunk set a shard manifest for those
// rows must pin.
func (r *Reader) ChunkRefsForRows(lo, hi int) ([]ChunkRef, error) {
	if lo < 0 || hi < lo || hi > r.hdr.rows {
		return nil, fmt.Errorf("store: row range [%d,%d) out of bounds for %d rows", lo, hi, r.hdr.rows)
	}
	if lo == hi {
		return nil, nil
	}
	first := lo / r.hdr.chunkRows
	last := (hi - 1) / r.hdr.chunkRows
	refs := make([]ChunkRef, 0, last-first+1)
	for c := first; c <= last; c++ {
		ref, err := r.ChunkRef(c)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
	return refs, nil
}
