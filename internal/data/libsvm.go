package data

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"boltondp/internal/vec"
)

const (
	libsvmBlockBytes = 64 << 10 // file bytes per read; a block is cut at its last newline
	libsvmMaxLine    = 16 << 20 // a line of this many bytes or more is an error
	libsvmMaxParsers = 4        // the in-order emitter is the limit well before this many
	// libsvmMaxColumns caps a column index. A dense row is as wide as
	// the widest index (LoadLIBSVM holds rows × dim floats; a sparse
	// dataset's first dense At allocates one such row), so an index from
	// a corrupt file must fail here, as an error, not later as a fatal
	// out-of-memory. The widest public LIBSVM set, kdd2010, has about
	// 29.9M columns.
	libsvmMaxColumns = 1 << 25
)

// libsvmBlock is the unit of ScanLIBSVM's pipeline: a run of whole
// lines and the rows parsed from them, in CSR form. parsers+2 blocks
// exist per scan and are recycled, which bounds what is in flight to
// that many times (block + longest line): ~100 KiB each on ordinary files.
type libsvmBlock struct {
	text   []byte // whole lines; only the file's last may lack its '\n'
	line   int    // line number of text's first line
	ys     []float64
	indptr []int
	idx    []int
	val    []float64
	err    error         // the first bad line; the rows are the lines before it
	parsed chan struct{} // parser → emitter, one signal per trip
}

// ScanLIBSVM streams a LIBSVM/SVMlight file ("label idx:val idx:val
// ..." per line, 1-based indices) through fn, one canonicalized row
// per call, in file order. It is the single implementation of the
// LIBSVM grammar: both in-memory loaders and the out-of-core store
// conversion are built on it, so the three paths cannot drift apart
// and the whole file is read exactly once however it is consumed.
//
// The grammar is ASCII: tokens are separated by space, \t, \v, \f or
// \r, a line whose first token starts with '#' is a comment, and every
// number is what strconv makes of its token. Rows are canonical
// (0-based indices, strictly ascending, duplicates summed by
// vec.SortedCopy). Labels are passed through as parsed — the {0,1} →
// ±1 convenience remap needs the full label set and is applied by the
// callers that materialize one.
//
// row is borrowed: it aliases the scanner's buffers and is valid until
// fn returns; fn may modify it in place but must copy what it keeps.
// fn runs on the caller's goroutine while the next blocks of the file
// are read and parsed on others, so its work overlaps the parsing. It
// is called for every line before the first malformed one and for
// nothing after; an error from fn ends the scan and is returned as-is.
// No goroutine outlives the call.
func ScanLIBSVM(path string, fn func(row *vec.Sparse, y float64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("data: %w", err)
	}
	defer f.Close()

	parsers := min(runtime.GOMAXPROCS(0), libsvmMaxParsers)
	// One block being filled, one per parser, one being emitted. Each
	// channel can hold them all, so only the wait for a free block blocks.
	n := parsers + 2
	free := make(chan *libsvmBlock, n)
	work := make(chan *libsvmBlock, n)
	ordered := make(chan *libsvmBlock, n)
	for i := 0; i < n; i++ {
		free <- &libsvmBlock{parsed: make(chan struct{}, 1)}
	}
	stop := make(chan struct{})
	var readErr error // written before ordered is closed, read after
	var wg sync.WaitGroup
	wg.Add(1 + parsers)
	go func() {
		defer wg.Done()
		defer close(work)
		defer close(ordered)
		readErr = readLIBSVMBlocks(f, path, free, stop, work, ordered)
	}()
	for i := 0; i < parsers; i++ {
		go func() {
			defer wg.Done()
			for b := range work {
				b.parse(path)
				b.parsed <- struct{}{}
			}
		}()
	}
	// However the scan ends, the reader is stopped and every goroutine
	// has exited before the file is closed and the caller resumes.
	defer wg.Wait()
	defer close(stop)

	var row vec.Sparse
	for b := range ordered {
		<-b.parsed
		for i, y := range b.ys {
			lo, hi := b.indptr[i], b.indptr[i+1]
			row.Idx, row.Val = b.idx[lo:hi:hi], b.val[lo:hi:hi]
			if err := fn(&row, y); err != nil {
				return err
			}
		}
		if b.err != nil {
			return b.err
		}
		free <- b
	}
	return readErr
}

// readLIBSVMBlocks cuts f into blocks of whole lines, carrying each
// block's unfinished last line into the next, and sends them to the
// parsers and, in file order, to the emitter until the file ends, a
// line reaches libsvmMaxLine, a read fails or stop is closed. The
// blocks sent before an error hold every line before the one it names.
func readLIBSVMBlocks(f io.Reader, path string, free <-chan *libsvmBlock, stop <-chan struct{}, work, ordered chan<- *libsvmBlock) error {
	var tail []byte // what followed the previous block's last newline
	for line, eof := 1, false; !eof; {
		var b *libsvmBlock
		select {
		case b = <-free:
		case <-stop:
			return nil
		}
		b.text, b.line = append(b.text[:0], tail...), line
		for { // text holds no newline yet: read on until its first line ends
			old := len(b.text)
			b.text = slices.Grow(b.text, libsvmBlockBytes)
			n, err := io.ReadFull(f, b.text[old:old+libsvmBlockBytes])
			b.text = b.text[:old+n]
			if eof = err == io.EOF || err == io.ErrUnexpectedEOF; err != nil && !eof {
				return fmt.Errorf("data: %w", err)
			}
			first := bytes.IndexByte(b.text[old:], '\n')
			if old+first >= libsvmMaxLine || first < 0 && len(b.text) >= libsvmMaxLine {
				return fmt.Errorf("data: %s:%d: line longer than 16 MiB", path, line)
			}
			if last := old + bytes.LastIndexByte(b.text[old:], '\n'); last >= old && !eof {
				tail = append(tail[:0], b.text[last+1:]...)
				b.text = b.text[:last+1]
			}
			if first >= 0 || eof {
				break
			}
		}
		if len(b.text) == 0 {
			return nil
		}
		line += bytes.Count(b.text, []byte{'\n'})
		work <- b
		ordered <- b
	}
	return nil
}

// parse turns b.text into rows, stopping at the first bad line.
func (b *libsvmBlock) parse(path string) {
	b.ys, b.idx, b.val, b.err = b.ys[:0], b.idx[:0], b.val[:0], nil
	b.indptr = append(b.indptr[:0], 0)
	for line, text := b.line, b.text; len(text) > 0; line++ {
		var ln []byte
		ln, text, _ = bytes.Cut(text, []byte{'\n'})
		if err := b.parseLine(ln); err != nil {
			b.err = fmt.Errorf("data: %s:%d: %w", path, line, err)
			return
		}
	}
}

// isSpace reports an ASCII separator: space, \t, \n, \v, \f or \r.
func isSpace(c byte) bool { return c == ' ' || c-'\t' < 5 }

// libsvmToken returns the bounds of ln's next token at or after i;
// start == end when there is none.
func libsvmToken(ln []byte, i int) (start, end int) {
	for i < len(ln) && isSpace(ln[i]) {
		i++
	}
	for start = i; i < len(ln) && !isSpace(ln[i]); i++ {
	}
	return start, i
}

// parseLine appends the row ln spells, if it spells one (blank lines
// and comments do not). The checks and their order are the grammar:
// label, then per feature its colon, its index in [1, libsvmMaxColumns],
// its value.
func (b *libsvmBlock) parseLine(ln []byte) error {
	start, end := libsvmToken(ln, 0)
	if start == end || ln[start] == '#' {
		return nil
	}
	y, err := strconv.ParseFloat(stringView(ln[start:end]), 64)
	if err != nil {
		return fmt.Errorf("bad label %q", ln[start:end])
	}
	lo, prev, sorted := len(b.idx), -1, true
	for {
		if start, end = libsvmToken(ln, end); start == end {
			break
		}
		kv := ln[start:end]
		colon := bytes.IndexByte(kv, ':')
		if colon < 0 {
			return fmt.Errorf("bad feature %q", kv)
		}
		ix, ok := parseIndex(kv[:colon])
		if !ok || ix < 1 {
			return fmt.Errorf("bad index %q", kv)
		}
		if ix > libsvmMaxColumns {
			return fmt.Errorf("index %q past the %d-column cap", kv, libsvmMaxColumns)
		}
		v, err := strconv.ParseFloat(stringView(kv[colon+1:]), 64)
		if err != nil {
			return fmt.Errorf("bad value %q", kv)
		}
		sorted, prev = sorted && ix-1 > prev, ix-1
		b.idx = append(b.idx, ix-1)
		b.val = append(b.val, v)
	}
	if !sorted {
		// Unsorted or repeated columns take the one canonicalizer, so the
		// order in which duplicates are summed is its order.
		s, err := vec.SortedCopy(b.idx[lo:], b.val[lo:])
		if err != nil {
			return err
		}
		b.idx, b.val = append(b.idx[:lo], s.Idx...), append(b.val[:lo], s.Val...)
	}
	b.ys = append(b.ys, y)
	b.indptr = append(b.indptr, len(b.idx))
	return nil
}

// parseIndex is strconv.Atoi with a fast path for what indices are:
// up to nine plain digits, which fit an int of either width.
func parseIndex(tok []byte) (int, bool) {
	ix, plain := 0, len(tok) >= 1 && len(tok) <= 9
	for k := 0; plain && k < len(tok); k++ {
		d := tok[k] - '0'
		plain = d <= 9
		ix = ix*10 + int(d)
	}
	if plain {
		return ix, true
	}
	ix, err := strconv.Atoi(string(tok))
	return ix, err == nil
}

// stringView is tok as a string without a copy, so that strconv stays
// the one reader of numbers (every bit, every NaN/Inf/hex spelling,
// every rejection) at no allocation per token. Safe because tok points
// into a block's text, which nothing writes or recycles while the
// block's parser — the only holder of the string — is inside the call,
// and strconv keeps no reference to its argument past its return.
func stringView(tok []byte) string { return unsafe.String(unsafe.SliceData(tok), len(tok)) }

// remap01 rewrites ys in place from {0,1} to {−1,+1} when the label
// set is exactly {0,1}, and returns the class count the loaders
// report (distinct labels, minimum 2).
func remap01(ys []float64, labels map[float64]bool) int {
	if len(labels) == 2 && labels[0] && labels[1] {
		for i := range ys {
			ys[i] = 2*ys[i] - 1
		}
	}
	classes := len(labels)
	if classes < 2 {
		classes = 2
	}
	return classes
}
