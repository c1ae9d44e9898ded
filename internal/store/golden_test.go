package store_test

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"testing"
)

// goldenV1CRC pins the decoded content of testdata/golden_v1.bolt: the
// canonical serialization (per row: nnz, label bits, then each
// index/value-bits pair, all as little-endian u64) hashed with
// CRC32 (IEEE). Printed by testdata/gen.go at generation time.
const goldenV1CRC = 0xef9b4067

// TestGoldenV1Fixture is the backward-compatibility anchor for the file
// format: a store committed to the repository must keep opening and
// decoding bit-for-bit. If this test fails, the reader broke old files
// — fix the reader, never regenerate the fixture.
func TestGoldenV1Fixture(t *testing.T) {
	rd := openStore(t, filepath.Join("testdata", "golden_v1.bolt"))
	if rd.Len() != 123 || rd.Dim() != 60 || rd.ChunkRows() != 32 || rd.Chunks() != 4 {
		t.Fatalf("fixture geometry changed: rows=%d dim=%d chunkRows=%d chunks=%d",
			rd.Len(), rd.Dim(), rd.ChunkRows(), rd.Chunks())
	}
	if err := rd.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	crc := crc32.NewIEEE()
	var u [8]byte
	emit := func(v uint64) {
		binary.LittleEndian.PutUint64(u[:], v)
		crc.Write(u[:])
	}
	for i := 0; i < rd.Len(); i++ {
		x, y := rd.AtSparse(i)
		emit(uint64(len(x.Idx)))
		emit(math.Float64bits(y))
		for k := range x.Idx {
			emit(uint64(x.Idx[k]))
			emit(math.Float64bits(x.Val[k]))
		}
	}
	if got := crc.Sum32(); got != goldenV1CRC {
		t.Fatalf("decoded content CRC %08x != pinned %08x — the reader no longer decodes v1 files it used to", got, goldenV1CRC)
	}
}
