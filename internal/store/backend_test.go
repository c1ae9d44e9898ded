package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"boltondp/internal/data"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// The two read backends — the file mapping and the portable pread +
// arena decode — must serve the same bits and fail closed on the same
// bytes with the same error. Every platform the tests run on takes the
// mapped path, so these tests open each file a second time with the
// mapping dropped.

// openArena opens path on the portable backend. The mapping goes before
// any chunk is loaded, so no cursor slice ever aliases it.
func openArena(path string) (*Reader, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	unmapFile(r.mm)
	r.mm = nil
	r.cur.init(r)
	return r, nil
}

var backends = []struct {
	name string
	open func(string) (*Reader, error)
}{{"mapped", Open}, {"arena", openArena}}

// writeFixture writes ds (labels ±1) to a fresh store file. Under
// opt.RemapLabels01 the raw labels go in as {0,1}, so the file serves
// ds's own labels back through the reader's remap.
func writeFixture(tb testing.TB, ds *data.SparseDataset, opt Options) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "ds.bolt")
	w, err := Create(path, opt)
	if err != nil {
		tb.Fatal(err)
	}
	w.SetDim(ds.Dim())
	for i := 0; i < ds.Len(); i++ {
		x, y := ds.AtSparse(i)
		if opt.RemapLabels01 {
			y = (y + 1) / 2
		}
		if err := w.Append(x, y); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// fixtureBytes is a small valid store file: 64 rows of 5 non-zeros,
// d=30.
func fixtureBytes(tb testing.TB, opt Options) []byte {
	tb.Helper()
	ds := data.SparseSynthetic(rand.New(rand.NewSource(5)), 64, 30, 5, 0)
	raw, err := os.ReadFile(writeFixture(tb, ds, opt))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func sameRow(t *testing.T, tag string, got *vec.Sparse, gy float64, want *vec.Sparse, wy float64) {
	t.Helper()
	if math.Float64bits(gy) != math.Float64bits(wy) || len(got.Idx) != len(want.Idx) {
		t.Fatalf("%s: label %v / %d non-zeros, want %v / %d", tag, gy, len(got.Idx), wy, len(want.Idx))
	}
	for k := range want.Idx {
		if got.Idx[k] != want.Idx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: coordinate %d differs", tag, k)
		}
	}
}

// TestBackendParity: rows (under the flagLabels01 remap), dense rows,
// shard views, raw chunk blocks and chunk refs come back bit-identical
// from both backends, and a permuted multi-pass training run ends on
// the same bits as the in-memory dataset.
func TestBackendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := data.SparseSynthetic(rng, 300, 60, 7, 0.05)
	path := writeFixture(t, ds, Options{ChunkRows: 32, RemapLabels01: true})

	train := func(s sgd.Samples) []float64 {
		res, err := engine.Run(s, engine.Config{Strategy: engine.Sequential, SGD: sgd.Config{
			Loss: loss.NewLogistic(1e-2, 0), Step: sgd.InvSqrtT(1), Radius: 100,
			Passes: 2, Batch: 10, Rand: rand.New(rand.NewSource(3)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res.W
	}
	wantW := train(ds)
	wantDense := make([]float64, ds.Dim())

	var rds []*Reader
	for _, b := range backends {
		r, err := b.open(path)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		defer r.Close()
		rds = append(rds, r)
		if r.Flags()&flagLabels01 == 0 || r.Len() != ds.Len() || r.Dim() != ds.Dim() || int(r.NNZ()) != ds.NNZ() {
			t.Fatalf("%s: flags %x, %d rows, dim %d, %d nnz", b.name, r.Flags(), r.Len(), r.Dim(), r.NNZ())
		}
		for _, i := range rng.Perm(ds.Len()) { // shuffled: forces chunk reloads
			want, wy := ds.AtSparse(i)
			got, gy := r.AtSparse(i)
			sameRow(t, b.name, got, gy, want, wy)
		}
		for _, i := range []int{0, 150, 299} {
			x, _ := ds.At(i)
			copy(wantDense, x)
			if got, _ := r.At(i); !reflect.DeepEqual(got, wantDense) {
				t.Fatalf("%s: dense row %d differs", b.name, i)
			}
		}
		sub := r.Shard(30, 90).(engine.Sharder).Shard(10, 20).(sgd.SparseSamples)
		for i := 0; i < sub.Len(); i++ {
			want, wy := ds.AtSparse(40 + i)
			got, gy := sub.AtSparse(i)
			sameRow(t, b.name+" sub-shard", got, gy, want, wy)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: Verify: %v", b.name, err)
		}
		for i, v := range train(r) {
			if math.Float64bits(v) != math.Float64bits(wantW[i]) {
				t.Fatalf("%s: trained w[%d] differs from the in-memory run", b.name, i)
			}
		}
	}
	mapped, arena := rds[0], rds[1]
	for c := 0; c < mapped.Chunks(); c++ {
		mp, mi, mv, my, err := mapped.ChunkCSR(c)
		if err != nil {
			t.Fatal(err)
		}
		ap, ai, av, ay, err := arena.ChunkCSR(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mp, ap) || !reflect.DeepEqual(mi, ai) || !reflect.DeepEqual(mv, av) || !reflect.DeepEqual(my, ay) {
			t.Fatalf("chunk %d: CSR block differs between backends", c)
		}
	}
	mrefs, err := mapped.ChunkRefsForRows(0, mapped.Len())
	if err != nil || len(mrefs) != mapped.Chunks() {
		t.Fatalf("%d chunk refs for %d chunks (err %v)", len(mrefs), mapped.Chunks(), err)
	}
	if arefs, err := arena.ChunkRefsForRows(0, arena.Len()); err != nil || !reflect.DeepEqual(arefs, mrefs) {
		t.Fatalf("chunk refs differ between backends (err %v)", err)
	}
}

// resealHeader recomputes the header checksum after damage, so the
// damage reaches the field checks behind it.
func resealHeader(damage func(b []byte)) func([]byte) []byte {
	return func(b []byte) []byte {
		damage(b)
		binary.LittleEndian.PutUint32(b[40:44], crc32.ChecksumIEEE(b[0:40]))
		return b
	}
}

// resealChunk0 damages chunk 0's index sections and recomputes the
// payload checksum: a plain bit flip never gets past the CRC to the CSR
// invariant checks, this does.
func resealChunk0(damage func(indptr, idx []byte)) func([]byte) []byte {
	return func(b []byte) []byte {
		rows := int(binary.LittleEndian.Uint32(b[48:52]))
		nnz := int(binary.LittleEndian.Uint32(b[52:56]))
		p := b[64 : 64+payloadLen(rows, nnz)]
		damage(p[8*(nnz+rows):8*(nnz+2*rows+1)], p[8*(nnz+2*rows+1):])
		binary.LittleEndian.PutUint32(b[60:64], crc32.ChecksumIEEE(p))
		return b
	}
}

// corruptions damages fixtureBytes(ChunkRows: 16) one region at a time;
// want is the error both backends must report. Every header field is
// load-bearing (dim bounds index validation, flags select the label
// remap, classes routes multiclass checks), so single-bit damage to any
// of them must be caught — the header carries its own CRC.
var corruptions = []struct {
	name   string
	mutate func([]byte) []byte
	want   string
}{
	{"bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, "bad magic"},
	{"bad-version", func(b []byte) []byte { b[8] = 99; return b }, "unsupported format version 99"},
	{"resealed-version-2", resealHeader(func(b []byte) { b[8] = 2 }), "unsupported format version 2"},
	{"resealed-chunk-rows-0", resealHeader(func(b []byte) { b[12] = 0 }), "chunk row count 0 out of range"},
	{"header-dim-flip", func(b []byte) []byte { b[16] ^= 0x01; return b }, "header checksum mismatch"},
	{"header-rows-flip", func(b []byte) []byte { b[24] ^= 0x01; return b }, "header checksum mismatch"},
	{"header-classes-flip", func(b []byte) []byte { b[32] ^= 0x01; return b }, "header checksum mismatch"},
	{"header-flags-flip", func(b []byte) []byte { b[36] ^= 0x01; return b }, "header checksum mismatch"},
	{"truncated-footer", func(b []byte) []byte { return b[:len(b)-7] }, "bad footer magic"},
	{"truncated-half", func(b []byte) []byte { return b[:len(b)/2] }, "bad footer magic"},
	{"truncated-to-header", func(b []byte) []byte { return b[:48] }, "file too short"},
	{"trailing-garbage", func(b []byte) []byte { return append(b, 0, 0, 0, 0) }, "bad footer magic"},
	{"chunk-payload-flip", func(b []byte) []byte { b[48+16+3] ^= 0x01; return b }, "chunk 0 checksum mismatch"},
	{"chunk-value-flip", func(b []byte) []byte { b[48+16+200] ^= 0x80; return b }, "chunk 0 checksum mismatch"},
	{"chunk-header-rows", func(b []byte) []byte { b[48] ^= 0x01; return b }, "chunk 0 holds 17 rows, want 16"},
	{"chunk-header-nnz", func(b []byte) []byte { b[52] ^= 0x01; return b }, "payload length"},
	{"resealed-indptr-start", resealChunk0(func(indptr, _ []byte) { indptr[0] = 1 }), "corrupt row index at 0"},
	{"resealed-indptr-total", resealChunk0(func(indptr, _ []byte) { indptr[len(indptr)-8]-- }), "row index does not cover"},
	{"resealed-column-range", resealChunk0(func(_, idx []byte) { idx[0] = 30 }), "columns out of range"},
	{"directory-flip", func(b []byte) []byte { b[len(b)-48-3] ^= 0x01; return b }, "directory checksum mismatch"},
	{"footer-rows-flip", func(b []byte) []byte { b[len(b)-48+8] ^= 0x01; return b }, "footer checksum mismatch"},
	{"footer-nnz-flip", func(b []byte) []byte { b[len(b)-48+16] ^= 0x01; return b }, "footer checksum mismatch"},
	{"empty", func([]byte) []byte { return nil }, "file too short"},
}

// TestFailClosed: every corruption is an error from Open or Verify —
// the same error on both backends — never a panic and never silently
// served data. A resealed header claiming format version 2 is refused
// at Open, before any chunk decode.
func TestFailClosed(t *testing.T) {
	raw := fixtureBytes(t, Options{ChunkRows: 16})
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.bolt")
			if err := os.WriteFile(path, tc.mutate(bytes.Clone(raw)), 0o644); err != nil {
				t.Fatal(err)
			}
			var msgs []string
			for _, b := range backends {
				r, err := b.open(path)
				if err == nil {
					err = r.Verify()
					r.Close()
				}
				if err == nil {
					t.Fatalf("%s: corruption neither rejected at Open nor by Verify", b.name)
				}
				msgs = append(msgs, err.Error())
			}
			if !strings.Contains(msgs[0], tc.want) || msgs[1] != msgs[0] {
				t.Fatalf("want %q from both backends, got\n mapped: %s\n arena:  %s", tc.want, msgs[0], msgs[1])
			}
		})
	}
}

// FuzzReadStore feeds arbitrary bytes to the store reader on both
// backends: Open plus a full Verify must either succeed or return an
// error — never panic, hang or over-allocate — the backends must agree
// on which, and a file both accept must serve the same rows. The seed
// corpus is valid files at several chunk geometries (one under the
// label remap) plus every corruption TestFailClosed pins.
func FuzzReadStore(f *testing.F) {
	valid := fixtureBytes(f, Options{ChunkRows: 16})
	f.Add(valid)
	f.Add(fixtureBytes(f, Options{ChunkRows: 1}))
	f.Add(fixtureBytes(f, Options{ChunkRows: 64}))
	f.Add(fixtureBytes(f, Options{ChunkRows: 8, RemapLabels01: true}))
	f.Add([]byte("BOLTSTR1"))
	for _, tc := range corruptions {
		f.Add(tc.mutate(bytes.Clone(valid)))
	}

	// One scratch file per worker process: os.WriteFile truncates, so
	// each exec sees only its own bytes, without a TempDir per exec.
	scratch := filepath.Join(f.TempDir(), "fuzz.bolt")

	f.Fuzz(func(t *testing.T, content []byte) {
		if err := os.WriteFile(scratch, content, 0o644); err != nil {
			t.Skip()
		}
		var ok []*Reader
		for _, b := range backends {
			r, err := b.open(scratch)
			if err != nil {
				continue // failed closed
			}
			defer r.Close()
			// A file Open accepts must serve consistent metadata and either
			// verify fully or error — never panic.
			if r.Len() < 1 || r.Dim() < 1 || r.Chunks() < 1 {
				t.Fatalf("Open accepted a store with Len=%d Dim=%d Chunks=%d", r.Len(), r.Dim(), r.Chunks())
			}
			if r.Verify() == nil {
				ok = append(ok, r)
			}
		}
		if len(ok) == 1 {
			t.Fatal("one backend verified a file the other rejects")
		}
		if len(ok) == 0 {
			return
		}
		// A fully verified store must serve every row without panicking.
		for i := 0; i < ok[0].Len(); i++ {
			want, wy := ok[0].AtSparse(i)
			got, gy := ok[1].AtSparse(i)
			sameRow(t, "arena vs mapped", got, gy, want, wy)
		}
	})
}

// TestChunkTable pins the mapped path's chunk lookup and the hint that
// reads off it, structurally (no clock): a verified chunk's rows are
// served from inside the mapping, out of the same chunk-table entry on
// every access — the labels included, which a flagLabels01 store
// remaps one row at a time instead of copying a chunk's worth — and the
// hint verifies nothing, on a Reader or on a fresh shard. A
// mapping-less reader's hint is inert and leaves its arena alone.
func TestChunkTable(t *testing.T) {
	ds := data.SparseSynthetic(rand.New(rand.NewSource(17)), 300, 60, 7, 0.05)
	for _, remap := range []bool{false, true} {
		path := writeFixture(t, ds, Options{ChunkRows: 32, RemapLabels01: remap})
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.mm == nil {
			t.Skip("no file mapping on this platform")
		}
		inMapping := func(p *float64) bool {
			a := uintptr(unsafe.Pointer(p))
			return a >= uintptr(unsafe.Pointer(&r.mm[0])) && a < uintptr(unsafe.Pointer(&r.mm[len(r.mm)-1]))
		}
		stored := func(i int) float64 { // the sum Touch reads for row i
			x, y := ds.Row(i)
			if remap {
				y = (y + 1) / 2
			}
			return y + vec.TouchSparse(x.Idx, x.Val)
		}
		// fromEntry reports whether row i of chunk e came back as e's own
		// memory.
		fromEntry := func(e *chunkCSR, x *vec.Sparse, i int) bool {
			return &x.Val[0] == &e.val[e.indptr[i%32]] && &x.Idx[0] == &e.idx[e.indptr[i%32]]
		}

		e := &r.cur.tab[3]
		if got := r.Touch(100); got != 0 || e.indptr != nil {
			t.Fatalf("remap=%v: hint on an unverified chunk returned %v or verified it", remap, got)
		}
		x, y := r.AtSparse(100) // first visit: verifies chunk 3 and files it
		if _, wy := ds.Row(100); y != wy {
			t.Fatalf("remap=%v: row 100 label %v, want %v", remap, y, wy)
		}
		first := &e.y[0]
		if !inMapping(first) || !inMapping(&x.Val[0]) || !fromEntry(e, x, 100) {
			t.Fatalf("remap=%v: chunk 3's rows are not served out of the mapping via the chunk table", remap)
		}
		r.AtSparse(5) // another chunk
		if got, want := r.Touch(100), stored(100); got != want {
			t.Fatalf("remap=%v: hint read %v, want %v", remap, got, want)
		}
		if got := r.Touch(200); got != 0 || r.cur.tab[6].indptr != nil {
			t.Fatalf("remap=%v: hint on unverified chunk 6 returned %v or verified it", remap, got)
		}
		x, _ = r.AtSparse(101) // back: the same entry, the same memory
		if &e.y[0] != first || !fromEntry(e, x, 101) {
			t.Fatalf("remap=%v: a second access to a verified chunk re-derived its slices", remap)
		}

		v := r.Shard(40, 120).(*span)
		if got := v.Touch(79); got != 0 {
			t.Fatalf("remap=%v: a fresh shard's hint read %v before its own cursor verified the chunk", remap, got)
		}
		v.AtSparse(79)
		v.AtSparse(0)
		if got, want := v.Touch(79), stored(119); got != want {
			t.Fatalf("remap=%v: shard hint at its last row read %v, want row 119's %v", remap, got, want)
		}

		a, err := openArena(path)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		x, _ = a.AtSparse(100)
		if got := a.Touch(100) + a.Touch(5); got != 0 || a.cur.n != 3 || a.cur.tab != nil || !fromEntry(&a.cur.arena, x, 100) {
			t.Fatalf("remap=%v: a mapping-less reader's hint read %v / left chunk %d in the arena", remap, got, a.cur.n)
		}
	}
}

// TestArenaDecodeOnce pins the pread fallback's decode count without a
// clock: a chunk is read and decoded once per visit, not once per row.
// Once row 0 has loaded chunk 0, its payload is overwritten in the
// file. The rest of chunk 0 must still read its original bits out of
// the arena; only a later visit, after chunk 1, reads the file again,
// and that read must fail the chunk's checksum.
func TestArenaDecodeOnce(t *testing.T) {
	const chunkRows = 32
	ds := data.SparseSynthetic(rand.New(rand.NewSource(19)), 3*chunkRows, 30, 5, 0)
	path := writeFixture(t, ds, Options{ChunkRows: chunkRows})
	r, err := openArena(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// read checks row i against ds and returns the panic it raised, if any.
	read := func(i int) (msg string) {
		defer func() {
			if e := recover(); e != nil {
				msg = fmt.Sprint(e)
			}
		}()
		got, gy := r.AtSparse(i)
		want, wy := ds.AtSparse(i)
		sameRow(t, fmt.Sprintf("row %d", i), got, gy, want, wy)
		return ""
	}
	if msg := read(0); msg != "" {
		t.Fatal(msg)
	}

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 64), r.offsets[0]+chunkHeaderSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= chunkRows; i++ { // the rest of chunk 0, then chunk 1
		if msg := read(i); msg != "" {
			t.Fatalf("row %d after chunk 0 was overwritten: %s; the arena was decoded again", i, msg)
		}
	}
	if msg := read(0); !strings.Contains(msg, "chunk 0 checksum mismatch") {
		t.Fatalf("revisiting the overwritten chunk: panic %q, want its checksum mismatch", msg)
	}
}
