package dist

import (
	"path/filepath"
	"testing"

	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// TempStore writes s to a store file under t.TempDir() and opens it:
// the way a test — like dpcoord -sim — hands an in-memory training set
// to workers. 64-row chunks make even a small set span several chunks.
// The reader closes when the test ends.
func TempStore(t testing.TB, s sgd.SparseSamples) *store.Reader {
	t.Helper()
	path := filepath.Join(t.TempDir(), "train.bolt")
	if err := store.Write(path, s, store.Options{ChunkRows: 64}); err != nil {
		t.Fatalf("store.Write: %v", err)
	}
	rd, err := store.Open(path)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { rd.Close() })
	return rd
}
