package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// Segment directory: the append-only tier of the store (DESIGN.md §12).
//
// A segment directory holds a set of immutable store files ("segments",
// each a complete store file written by Writer) plus a CRC'd
// MANIFEST that lists them in ingestion order. The union of the
// segments, in manifest order, is one logical dataset: OpenDir exposes
// it behind the same sgd.Samples / sgd.SparseSamples / engine.Sharder
// contract a single Reader satisfies, so every execution strategy
// trains from a directory exactly as it trains from a file.
//
// Visibility is manifest membership: AppendSegment writes the new
// segment to a temp name, re-opens it and runs the full fail-closed
// integrity check (structural CRCs via Open, every chunk CRC via
// Verify, and the dimension / label-set / density invariants against
// the union), and only then renames it into place and rewrites the
// manifest. A segment that fails any check is deleted, the manifest is
// untouched, and no reader can ever observe the rejected rows — the
// deductive-database reading of integrity constraints: an update that
// would violate a constraint is refused, not repaired.
//
// Segments are immutable once visible; Compact replaces runs of small
// adjacent segments with their merged equivalent, preserving global
// row order so training from the compacted directory is bit-identical
// to the uncompacted union (pinned for all three strategies).

// manifestName is the manifest file inside a segment directory.
const manifestName = "MANIFEST"

// manifestMagic is the manifest's first line: format name and version.
const manifestMagic = "boltondp-segdir 1"

// maxDensityRatio bounds how far an ingested segment's nonzero density
// may deviate from the union's before the append is refused: a factor
// of 16 either way. A bigger swing is, in every workload this store
// serves, a pipeline bug (wrong file, wrong columns, truncated values)
// rather than drift — drift at that magnitude shows up in the drift
// detector's label-rate and margin statistics long before it moves
// aggregate density this far.
const maxDensityRatio = 16.0

// segEntry is one manifest line: an immutable segment and the totals
// it was ingested with. CRC is the IEEE CRC32 of the entire segment
// file at ingestion time — Dir.Verify checks it, and it pins the file
// identity beyond the (rows, nnz) totals that OpenDir cross-checks.
type segEntry struct {
	Name string
	Rows int
	NNZ  int64
	CRC  uint32
}

// readManifest reads and CRC-verifies dir's manifest. A missing
// manifest returns os.ErrNotExist (an empty or not-yet-initialized
// directory); any other defect fails closed.
func readManifest(dir string) ([]segEntry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	// The trailer line authenticates everything before it.
	i := bytes.LastIndexByte(bytes.TrimRight(raw, "\n"), '\n')
	if i < 0 {
		return nil, fmt.Errorf("store: %s/%s: missing crc trailer", dir, manifestName)
	}
	body, trailer := raw[:i+1], strings.TrimSpace(string(raw[i+1:]))
	var want uint32
	if _, err := fmt.Sscanf(trailer, "crc %08x", &want); err != nil {
		return nil, fmt.Errorf("store: %s/%s: bad crc trailer %q", dir, manifestName, trailer)
	}
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("store: %s/%s: crc mismatch (manifest %08x, content %08x)", dir, manifestName, want, got)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	if !sc.Scan() || sc.Text() != manifestMagic {
		return nil, fmt.Errorf("store: %s/%s: bad magic line", dir, manifestName)
	}
	var ents []segEntry
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e segEntry
		if _, err := fmt.Sscanf(line, "seg %s %d %d %08x", &e.Name, &e.Rows, &e.NNZ, &e.CRC); err != nil {
			return nil, fmt.Errorf("store: %s/%s: bad entry %q", dir, manifestName, line)
		}
		if e.Name != filepath.Base(e.Name) || e.Rows < 0 || e.NNZ < 0 {
			return nil, fmt.Errorf("store: %s/%s: invalid entry %q", dir, manifestName, line)
		}
		ents = append(ents, e)
	}
	return ents, sc.Err()
}

// writeManifest atomically replaces dir's manifest (same-directory
// temp + rename, the registry's persistence idiom) with one listing
// ents in order, CRC-trailed.
func writeManifest(dir string, ents []segEntry) error {
	var buf bytes.Buffer
	buf.WriteString(manifestMagic + "\n")
	for _, e := range ents {
		fmt.Fprintf(&buf, "seg %s %d %d %08x\n", e.Name, e.Rows, e.NNZ, e.CRC)
	}
	fmt.Fprintf(&buf, "crc %08x\n", crc32.ChecksumIEEE(buf.Bytes()))
	f, err := os.CreateTemp(dir, manifestName+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(buf.Bytes()); err == nil {
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// fileCRC32 returns the IEEE CRC32 of the whole file at path.
func fileCRC32(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// nextSegName picks the next segment file name: seg-%06d.seg, one past
// the highest sequence number in ents (names are never reused while
// referenced, so a compacted directory keeps monotone provenance).
func nextSegName(dir string, ents []segEntry) string {
	seq := 0
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name, "seg-%06d.seg", &n); err == nil && n > seq {
			seq = n
		}
	}
	for {
		seq++
		name := fmt.Sprintf("seg-%06d.seg", seq)
		if _, err := os.Stat(filepath.Join(dir, name)); os.IsNotExist(err) {
			return name
		}
	}
}

// Dir is the union reader over a segment directory: one logical
// dataset spanning every segment the manifest lists, in order. It
// implements sgd.Samples, sgd.SparseSamples and engine.Sharder, so it
// drops into every execution strategy (and the facade's TrainCtx)
// exactly where a single-file Reader does.
//
// The Dir's own row access is a span over every segment, with one
// cursor per segment, and is single-goroutine like a Reader's; Shard
// returns independent spans with fresh cursors for concurrent
// strategies.
type Dir struct {
	dir  string
	ents []segEntry
	segs []*Reader
	root *span // rows [0, Len()) of segs

	classes int
	nnz     int64
}

// OpenDir opens the segment directory at dir: the manifest is CRC-
// verified, every listed segment is opened (structural header / footer
// / directory CRCs checked by Open) and cross-checked against its
// manifest totals, and the dimension / class-count invariants are
// enforced across segments. Chunk payload CRCs stay lazy, as with
// Open; Verify forces them all.
func OpenDir(dir string) (*Dir, error) {
	ents, err := readManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s is not a segment directory (no %s); ingest with AppendSegment first", dir, manifestName)
		}
		return nil, err
	}
	d := &Dir{dir: dir, ents: ents}
	if err := d.open(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// open opens every manifest entry and rebuilds the root span.
// d.segs may hold already-open readers from a previous load; matching
// prefix entries are reused (segments are immutable), the rest are
// opened fresh.
func (d *Dir) open() error {
	segs := make([]*Reader, 0, len(d.ents))
	for i, e := range d.ents {
		var r *Reader
		if i < len(d.segs) && d.segs[i] != nil && filepath.Base(d.segs[i].Path()) == e.Name {
			r = d.segs[i] // immutable, still listed: reuse the open reader
		} else {
			var err error
			r, err = Open(filepath.Join(d.dir, e.Name))
			if err != nil {
				return fmt.Errorf("store: segment %s: %w", e.Name, err)
			}
		}
		if r.Len() != e.Rows || r.NNZ() != e.NNZ {
			if i >= len(d.segs) || d.segs[i] != r {
				r.Close()
			}
			return fmt.Errorf("store: segment %s holds %d rows / %d nnz, manifest says %d / %d",
				e.Name, r.Len(), r.NNZ(), e.Rows, e.NNZ)
		}
		segs = append(segs, r)
	}
	// Close readers the new manifest no longer references (compaction).
	for i, old := range d.segs {
		if old == nil {
			continue
		}
		kept := i < len(segs) && segs[i] == old
		if !kept {
			old.Close()
		}
	}
	rows := 0
	for _, r := range segs {
		rows += r.Len()
	}
	d.segs, d.root = segs, newSpan(segs, 0, rows)
	d.classes, d.nnz = 0, 0
	for i, r := range segs {
		d.nnz += r.NNZ()
		if i == 0 {
			d.classes = r.Classes()
			continue
		}
		if r.Dim() != d.Dim() {
			return fmt.Errorf("store: segment %s has dim %d, directory has %d", d.ents[i].Name, r.Dim(), d.Dim())
		}
		if r.Classes() != d.classes {
			return fmt.Errorf("store: segment %s has %d classes, directory has %d", d.ents[i].Name, r.Classes(), d.classes)
		}
	}
	return nil
}

// Reload re-reads the manifest and folds in whatever changed: appended
// segments are opened (existing readers are reused — segments are
// immutable), segments dropped by compaction are closed. Call it after
// AppendSegment or Compact on a directory this handle has open.
func (d *Dir) Reload() error {
	ents, err := readManifest(d.dir)
	if err != nil {
		return err
	}
	d.ents = ents
	return d.open()
}

// Close releases every open segment.
func (d *Dir) Close() error {
	var first error
	for _, r := range d.segs {
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.segs = nil
	return first
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.dir }

// Len implements sgd.Samples: total rows across segments.
func (d *Dir) Len() int { return d.root.Len() }

// Dim implements sgd.Samples.
func (d *Dir) Dim() int { return d.root.Dim() }

// Classes returns the distinct-label count shared by every segment.
func (d *Dir) Classes() int { return d.classes }

// NNZ returns the total stored nonzeros.
func (d *Dir) NNZ() int64 { return d.nnz }

// Density returns nnz / (rows · dim) for the union.
func (d *Dir) Density() float64 {
	if d.Len() == 0 || d.Dim() == 0 {
		return 0
	}
	return float64(d.nnz) / (float64(d.Len()) * float64(d.Dim()))
}

// Segments returns the number of segments the union spans.
func (d *Dir) Segments() int { return len(d.segs) }

// SegmentNames returns the manifest's segment file names, in order.
func (d *Dir) SegmentNames() []string {
	names := make([]string, len(d.ents))
	for i, e := range d.ents {
		names[i] = e.Name
	}
	return names
}

// At implements sgd.Samples.
func (d *Dir) At(i int) ([]float64, float64) { return d.root.At(i) }

// AtSparse implements sgd.SparseSamples.
func (d *Dir) AtSparse(i int) (*vec.Sparse, float64) { return d.root.AtSparse(i) }

// Touch is the epoch loops' look-ahead hint for row i.
func (d *Dir) Touch(i int) float64 { return d.root.Touch(i) }

// Shard implements engine.Sharder: rows [lo, hi) as a span with fresh
// per-segment cursors, safe to use concurrently with other shards (the
// contract the sharded strategy relies on).
func (d *Dir) Shard(lo, hi int) sgd.Samples { return d.root.Shard(lo, hi) }

// Verify forces the full integrity check over every segment: the
// manifest-pinned whole-file CRC32 plus Reader.Verify's chunk-payload
// sweep. OpenDir leaves both lazy for the same reason Open does; call
// this for the eager fail-closed sweep.
func (d *Dir) Verify() error {
	for i, e := range d.ents {
		crc, err := fileCRC32(filepath.Join(d.dir, e.Name))
		if err != nil {
			return fmt.Errorf("store: segment %s: %w", e.Name, err)
		}
		if crc != e.CRC {
			return fmt.Errorf("store: segment %s: file crc %08x, manifest pins %08x", e.Name, crc, e.CRC)
		}
		if err := d.segs[i].Verify(); err != nil {
			return err
		}
	}
	return nil
}

// AppendSegment streams src into a new immutable segment of the
// directory at dir, creating the directory (and its manifest) on first
// use. The segment becomes visible — joins the manifest — only after
// it passes the full fail-closed integrity check; on any failure the
// directory is exactly as before. It returns the new segment's file
// name.
func AppendSegment(dir string, src sgd.SparseSamples, opt Options) (string, error) {
	return AppendSegmentScan(dir, src.Dim(), opt, func(emit func(x *vec.Sparse, y float64) error) error {
		for i := 0; i < src.Len(); i++ {
			x, y := src.AtSparse(i)
			if err := emit(x, y); err != nil {
				return err
			}
		}
		return nil
	})
}

// AppendSegmentScan is AppendSegment for streaming sources: scan is
// invoked once and feeds rows through emit in their final order — one
// pass, O(chunk) memory, the same shape as the -cache LIBSVM
// conversion. dim, when positive, floors the recorded dimension (use
// the source's logical dimension; rows may not populate the last
// columns). Ingesting into a non-empty directory pins the dimension to
// the directory's.
func AppendSegmentScan(dir string, dim int, opt Options, scan func(emit func(x *vec.Sparse, y float64) error) error) (name string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	ents, err := readManifest(dir)
	if err != nil && !os.IsNotExist(err) {
		return "", err
	}
	// The union invariants the new segment must satisfy.
	var unionRows, unionDim, unionClasses int
	var unionNNZ int64
	if len(ents) > 0 {
		// The first segment carries the directory-wide dim/classes
		// (OpenDir enforces the cross-segment agreement).
		first, err := Open(filepath.Join(dir, ents[0].Name))
		if err != nil {
			return "", fmt.Errorf("store: segment %s: %w", ents[0].Name, err)
		}
		unionDim, unionClasses = first.Dim(), first.Classes()
		first.Close()
		for _, e := range ents {
			unionRows += e.Rows
			unionNNZ += e.NNZ
		}
	}

	name = nextSegName(dir, ents)
	tmp := filepath.Join(dir, name+".tmp")
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	w, err := Create(tmp, opt)
	if err != nil {
		return "", err
	}
	if unionDim > 0 {
		w.SetDim(unionDim)
	}
	if dim > 0 {
		w.SetDim(dim)
	}
	if err = scan(w.Append); err != nil {
		w.Abort()
		return "", err
	}
	if err = w.Close(); err != nil {
		return "", err
	}

	// Fail-closed integrity gate, on the still-invisible temp file:
	// structural CRCs (Open), every chunk payload CRC (Verify), and the
	// dim / label-set / density invariants against the union.
	r, err := Open(tmp)
	if err != nil {
		return "", err
	}
	err = func() error {
		if r.Len() == 0 {
			return errors.New("store: refusing to ingest an empty segment")
		}
		if err := r.Verify(); err != nil {
			return err
		}
		if unionRows > 0 {
			if r.Dim() != unionDim {
				return fmt.Errorf("store: segment dim %d violates the directory's %d", r.Dim(), unionDim)
			}
			if r.Classes() != unionClasses {
				return fmt.Errorf("store: segment label set has %d classes, directory has %d", r.Classes(), unionClasses)
			}
			segDen := r.Density()
			unionDen := float64(unionNNZ) / (float64(unionRows) * float64(unionDim))
			if unionDen > 0 && (segDen <= 0 || segDen > unionDen*maxDensityRatio || segDen < unionDen/maxDensityRatio) {
				return fmt.Errorf("store: segment density %.6f is more than %gx off the directory's %.6f — refusing the ingest (wrong file or truncated values?)",
					segDen, maxDensityRatio, unionDen)
			}
		}
		return nil
	}()
	rows, nnz := r.Len(), r.NNZ()
	r.Close()
	if err != nil {
		return "", err
	}
	crc, err := fileCRC32(tmp)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	// Visibility: rename into place, then commit the manifest. A crash
	// between the two leaves an unlisted (invisible) segment file that
	// the next successful append simply never references.
	if err = os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if err = writeManifest(dir, append(ents, segEntry{Name: name, Rows: rows, NNZ: nnz, CRC: crc})); err != nil {
		os.Remove(filepath.Join(dir, name))
		return "", err
	}
	return name, nil
}

// Compact merges runs of small adjacent segments — each with fewer
// than minRows rows (minRows <= 0 merges everything) — into single
// segments, preserving global row order, so training from the
// compacted directory is bit-identical to the uncompacted union. The
// merged segment inherits the run's first segment's chunk size and the
// directory's class count, and is checked against the run it replaces
// before the manifest names it. The manifest swap is atomic;
// superseded segment files are removed after it commits (open readers
// on them keep working — the files are immutable and a Dir.Reload
// folds the swap in). It returns the segment counts before and after.
func Compact(dir string, minRows int) (before, after int, err error) {
	ents, err := readManifest(dir)
	if err != nil {
		return 0, 0, err
	}
	before = len(ents)
	small := func(e segEntry) bool { return minRows <= 0 || e.Rows < minRows }

	var out []segEntry
	var dropped [][]segEntry
	for i := 0; i < len(ents); {
		// Extend the maximal run of small segments starting at i.
		j := i
		for j < len(ents) && small(ents[j]) {
			j++
		}
		if j-i < 2 {
			// Nothing to merge here: keep min(j+1, …) entries verbatim.
			if j == i {
				j = i + 1
			}
			out = append(out, ents[i:j]...)
			i = j
			continue
		}
		merged, err := mergeSegments(dir, ents[i:j])
		if err != nil {
			// Files merged for earlier runs stay behind unlisted, hence
			// invisible; the manifest is untouched.
			return before, before, err
		}
		out = append(out, merged)
		dropped = append(dropped, ents[i:j])
		i = j
	}
	if len(dropped) == 0 {
		return before, before, nil
	}
	if err := writeManifest(dir, out); err != nil {
		return before, before, err
	}
	for _, run := range dropped {
		for _, e := range run {
			os.Remove(filepath.Join(dir, e.Name))
		}
	}
	return before, len(out), nil
}

// mergeSegments streams the rows of run (in order) into one new
// segment file and returns its manifest entry. Labels pass through the
// readers' serving form (any {0,1}→±1 remap already applied), so the
// merged segment serves bit-identical rows. Like an appended segment,
// the merged file stays under a temp name until it is re-opened and
// shown to hold exactly the run's rows under the directory's dim and
// class count; on any failure the temp is removed and nothing else in
// the directory has changed.
func mergeSegments(dir string, run []segEntry) (_ segEntry, err error) {
	first, err := Open(filepath.Join(dir, run[0].Name))
	if err != nil {
		return segEntry{}, fmt.Errorf("store: segment %s: %w", run[0].Name, err)
	}
	// The class count is the directory's, not the run's: under an
	// explicit Options.Classes a run may miss a class, and re-inferring
	// would write a segment OpenDir refuses.
	dim, classes := first.Dim(), first.Classes()
	opt := Options{ChunkRows: first.ChunkRows(), Classes: classes}
	first.Close()

	// Merged files sort after every live segment: provenance stays
	// monotone and a crashed compaction's unlisted output never
	// collides with a live name.
	all, _ := readManifest(dir)
	name := nextSegName(dir, all)
	tmp := filepath.Join(dir, name+".tmp")
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	w, err := Create(tmp, opt)
	if err != nil {
		return segEntry{}, err
	}
	w.SetDim(dim)
	wantRows := 0
	for _, e := range run {
		r, err := Open(filepath.Join(dir, e.Name))
		if err != nil {
			w.Abort()
			return segEntry{}, fmt.Errorf("store: segment %s: %w", e.Name, err)
		}
		for i := 0; i < r.Len(); i++ {
			x, y := r.AtSparse(i)
			if err := w.Append(x, y); err != nil {
				r.Close()
				w.Abort()
				return segEntry{}, err
			}
		}
		r.Close()
		wantRows += e.Rows
	}
	if err := w.Close(); err != nil {
		return segEntry{}, err
	}

	m, err := Open(tmp)
	if err != nil {
		return segEntry{}, err
	}
	rows, nnz, gotDim, gotClasses := m.Len(), m.NNZ(), m.Dim(), m.Classes()
	m.Close()
	if rows != wantRows || gotDim != dim || gotClasses != classes {
		return segEntry{}, fmt.Errorf("store: merging %s..%s gave %d rows / dim %d / %d classes, the run it replaces holds %d / %d / %d — refusing the compaction",
			run[0].Name, run[len(run)-1].Name, rows, gotDim, gotClasses, wantRows, dim, classes)
	}
	crc, err := fileCRC32(tmp)
	if err != nil {
		return segEntry{}, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return segEntry{}, fmt.Errorf("store: %w", err)
	}
	return segEntry{Name: name, Rows: rows, NNZ: nnz, CRC: crc}, nil
}
