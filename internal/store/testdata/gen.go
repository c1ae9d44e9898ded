//go:build ignore

// gen.go regenerates golden_v1.bolt, the committed store fixture
// TestGoldenV1Fixture opens. Run from the repository root:
//
//	go run internal/store/testdata/gen.go
//
// It prints the canonical content CRC to paste into the test's
// goldenV1CRC constant. The fixture exists so that readers keep
// decoding historical files bit-for-bit; it should only ever be
// regenerated if the fixture itself needs different content, never to
// "fix" a failing reader.
package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"

	"boltondp/internal/store"
	"boltondp/internal/vec"
)

func main() {
	const path = "internal/store/testdata/golden_v1.bolt"
	r := rand.New(rand.NewSource(20260808))
	w, err := store.Create(path, store.Options{ChunkRows: 32})
	if err != nil {
		panic(err)
	}
	w.SetDim(60)
	crc := crc32.NewIEEE()
	var u [8]byte
	emit := func(v uint64) {
		binary.LittleEndian.PutUint64(u[:], v)
		crc.Write(u[:])
	}
	for i := 0; i < 123; i++ {
		nnz := 1 + r.Intn(8)
		seen := map[int]bool{}
		for len(seen) < nnz {
			seen[r.Intn(60)] = true
		}
		x := &vec.Sparse{}
		for c := 0; c < 60; c++ {
			if seen[c] {
				x.Idx = append(x.Idx, c)
				x.Val = append(x.Val, r.NormFloat64())
			}
		}
		y := float64(1 - 2*(i%2))
		if err := w.Append(x, y); err != nil {
			panic(err)
		}
		emit(uint64(len(x.Idx)))
		emit(math.Float64bits(y))
		for k := range x.Idx {
			emit(uint64(x.Idx[k]))
			emit(math.Float64bits(x.Val[k]))
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	fmt.Printf("golden_v1.bolt written; goldenV1CRC = 0x%08x\n", crc.Sum32())
}
