// Package serve is the model-serving subsystem: a concurrent HTTP
// prediction service over a registry of trained models.
//
// The paper's end product is a deployed private model — training runs
// inside the RDBMS precisely so the resulting classifier can be used
// where the data lives. This package is that deployment surface: a
// long-lived process that answers a stream of small prediction queries
// against a maintained model artifact, hot-swapping the live model when
// a new version is published (the same shape as incremental view
// maintenance: maintain an artifact, answer queries against it, swap on
// update).
//
// The subsystem has five parts:
//
//   - Registry: named model versions persisted via the eval
//     serialization format, with an atomically hot-swappable live
//     model and a persisted live designation replicas converge on.
//     Published models are immutable; readers can never observe a
//     torn model.
//   - Server: HTTP handlers for /predict (one row, dense or sparse
//     coordinate form), /predict/batch (amortized scoring, sparse rows
//     routed through the eval sparse tier at O(rows·classes·nnz)), and
//     /healthz + /modelz + /metrics introspection, behind an optional
//     bounded admission queue (see admission.go).
//   - Watch: directory polling (watch.go) so N serving replicas over
//     one shared registry directory converge on publishes and
//     live-swaps without restart.
//   - Canary: staged rollout (canary.go) routing a deterministic
//     fraction of batch rows to a candidate version, with automatic
//     rollback on error-rate regression.
//   - The train-and-publish path: dpsgd -publish writes boltondp.Train
//     output straight into a registry directory that cmd/dpserve
//     serves.
package serve

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"boltondp/internal/eval"
)

// Model is one immutable published model version. All fields are set
// at publish time and never mutated afterwards — that immutability is
// what makes the registry's atomic-pointer hot-swap torn-model-free.
type Model struct {
	// Name identifies the version inside its registry.
	Name string
	// Classifier is the dense scoring interface.
	Classifier eval.Classifier
	// Sparse is the sparse scoring tier (non-nil for every model the
	// registry accepts; both eval classifier kinds implement it).
	Sparse eval.SparseClassifier
	// Meta is the metadata the model was published with — typically
	// its privacy statement (ε, δ, loss, sensitivity). The registry
	// stores a private copy.
	Meta map[string]string
	// Dim is the feature dimension rows must match.
	Dim int
	// Classes is 2 for a binary model, else the one-vs-all class count.
	Classes int
	// Published is when this version entered the registry.
	Published time.Time

	// w32 is the float32 scoring tier: one quantized weight row per
	// class margin (one row for Linear, Classes rows for OneVsAll),
	// built once at publish time. See f32.go for the precision
	// argument; the f64 classifier above remains the source of truth
	// and the persisted form.
	w32 [][]float32
}

// newModel validates a classifier and wraps it as a registry version.
// Only the eval classifier kinds are accepted: the registry persists
// through eval.SaveClassifier, so anything it holds must round-trip
// that format.
func newModel(name string, c eval.Classifier, meta map[string]string) (*Model, error) {
	m := &Model{Name: name, Classifier: c, Published: time.Now()}
	switch cc := c.(type) {
	case *eval.Linear:
		if len(cc.W) == 0 {
			return nil, fmt.Errorf("serve: model %q has an empty weight vector", name)
		}
		m.Dim, m.Classes = len(cc.W), 2
		m.w32 = [][]float32{quantize32(cc.W)}
	case *eval.OneVsAll:
		if len(cc.W) < 2 || len(cc.W[0]) == 0 {
			return nil, fmt.Errorf("serve: model %q is a malformed one-vs-all model", name)
		}
		m.Dim, m.Classes = len(cc.W[0]), len(cc.W)
		m.w32 = make([][]float32, len(cc.W))
		for cls, w := range cc.W {
			if len(w) != m.Dim {
				return nil, fmt.Errorf("serve: model %q class %d has dim %d, want %d", name, cls, len(w), m.Dim)
			}
			m.w32[cls] = quantize32(w)
		}
	default:
		return nil, fmt.Errorf("serve: cannot serve %T (registry models must round-trip eval.SaveClassifier)", c)
	}
	m.Sparse = c.(eval.SparseClassifier)
	if len(meta) > 0 {
		m.Meta = make(map[string]string, len(meta))
		for k, v := range meta {
			m.Meta[k] = v
		}
	}
	return m, nil
}

// liveFile is the live-designation file inside a registry directory:
// it holds the name of the designated live version, written atomically
// on every swap, so separate serving replicas over one shared
// directory converge on the same live model (watch.go polls it). The
// leading dot keeps it out of the *.json model scan, and
// ValidModelName rejects dotted names, so it can never collide with a
// model file.
const liveFile = ".live"

// tmpSweepAge is how old a leftover *.tmp file must be before
// NewRegistry removes it. A publisher that crashed mid-persist leaves
// its temp file behind forever (the rename never ran); a *concurrent*
// publisher's temp file is at most milliseconds old. The gate keeps
// the sweep from deleting the latter while guaranteeing the former
// cannot accumulate across restarts.
const tmpSweepAge = time.Hour

// mtimeQuantum bounds the timestamp granularity of the filesystems a
// registry directory is expected to live on (FAT rounds to 2 s, many
// network filesystems to 1 s). A republish can reuse its predecessor's
// (mtime, size) stamp only when both writes land inside one quantum.
const mtimeQuantum = 2 * time.Second

// fileStamp identifies one on-disk model file state for the watch
// diff: the cheap (mtime, size) pair, plus a content CRC tiebreaker.
// Persistence is temp+rename, so a file never mutates in place — any
// republish lands as a new inode, normally with a fresh mtime. The
// exception is a same-size republish within the same timestamp quantum
// as the stamped write, which (mtime, size) alone cannot see; crc and
// seenAt exist to close that hole without paying a content read on
// every poll (see fileStamp.suspect).
type fileStamp struct {
	mtime  time.Time
	size   int64
	crc    uint32    // IEEE CRC32 of the file contents; 0 = unknown
	seenAt time.Time // when the contents were last known to match crc
}

// suspect reports whether a matching (mtime, size) is NOT enough to
// rule out a rewrite: the stamp was recorded within one timestamp
// quantum of the file's own mtime, so a same-size rewrite in that same
// quantum would be invisible to the cheap diff. Refresh tiebreaks
// suspect files on content CRC; a clean check after the quantum has
// passed (seenAt moves forward) retires the suspicion, so steady-state
// polling stays stat-only.
func (st fileStamp) suspect() bool {
	return st.crc != 0 && st.seenAt.Sub(st.mtime) < mtimeQuantum
}

// fileCRC returns the IEEE CRC32 of the file's contents.
func fileCRC(path string) (uint32, error) {
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

// Registry holds named model versions and designates one of them live.
//
// Locking invariants (pinned by the race tests):
//
//   - The version map is guarded by mu; Publish/SetLive/Refresh take
//     the write lock, Get/Names/Models/Snapshot the read lock.
//   - The live model is a single atomic pointer to an immutable Model.
//     Prediction paths load it exactly once per request and never take
//     mu, so hot-swaps cannot block or tear in-flight predictions: a
//     reader sees the old version or the new one, never a mixture.
//     Every live.Store happens while mu is held, so a reader holding
//     the read lock observes a (live, models) pair from one registry
//     state — the Snapshot contract /healthz relies on.
//   - Persistence is write-to-temp + rename, so a registry directory
//     never contains a half-written model file; the live designation
//     file is written the same way.
type Registry struct {
	dir string // "" = in-memory only

	live   atomic.Pointer[Model]
	canary atomic.Pointer[canaryState]

	mu     sync.RWMutex
	models map[string]*Model
	seen   map[string]fileStamp // on-disk state the watch diff compares against
}

// NewRegistry opens the registry rooted at dir, creating the directory
// if needed and loading every model file already in it (from earlier
// Publish calls or dpsgd -publish). Stale temp files from crashed
// publishes (older than tmpSweepAge) are swept. The live model is the
// one the directory's live-designation file names; absent that file,
// a directory holding exactly one model auto-designates it (the
// single-model dpsgd→dpserve path), and otherwise the caller picks one
// with SetLive. dir == "" gives an in-memory registry.
func NewRegistry(dir string) (*Registry, error) {
	r := &Registry{dir: dir, models: map[string]*Model{}, seen: map[string]fileStamp{}}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			// A crashed publish left its temp behind. Only sweep temps
			// demonstrably stale: a live concurrent publisher's temp is
			// seconds old at most and must survive.
			if fi, err := e.Info(); err == nil && time.Since(fi.ModTime()) > tmpSweepAge {
				os.Remove(filepath.Join(dir, e.Name()))
			}
			continue
		}
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		c, meta, err := eval.LoadClassifier(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("serve: loading %q: %w", e.Name(), err)
		}
		m, err := newModel(name, c, meta)
		if err != nil {
			return nil, err
		}
		// The file's mtime is the persisted record of when this version
		// was published; stamping load time would make /modelz report
		// the process restart as every model's publish time.
		if fi, err := e.Info(); err == nil {
			m.Published = fi.ModTime()
			st := fileStamp{mtime: fi.ModTime(), size: fi.Size(), seenAt: time.Now()}
			if crc, err := fileCRC(filepath.Join(dir, e.Name())); err == nil {
				st.crc = crc
			}
			r.seen[name] = st
		}
		r.models[name] = m
	}
	// The persisted designation wins; the single-model rule is the
	// back-compat fallback for directories that predate it (or whose
	// designation file was removed).
	if name, ok := r.readLiveFile(); ok {
		if m := r.models[name]; m != nil {
			r.live.Store(m)
		}
	}
	if r.live.Load() == nil && len(r.models) == 1 {
		for _, m := range r.models {
			r.live.Store(m)
		}
	}
	return r, nil
}

// readLiveFile reads the live designation from the registry directory.
func (r *Registry) readLiveFile() (string, bool) {
	b, err := os.ReadFile(filepath.Join(r.dir, liveFile))
	if err != nil {
		return "", false
	}
	name := strings.TrimSpace(string(b))
	return name, name != ""
}

// writeLiveFile persists the live designation atomically (same
// temp+rename discipline as model files). Callers hold mu.
func (r *Registry) writeLiveFile(name string) error {
	f, err := os.CreateTemp(r.dir, liveFile+".*.tmp")
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	tmp := f.Name()
	if _, err := f.WriteString(name + "\n"); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(r.dir, liveFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// ValidModelName rejects names that cannot double as registry file
// stems. Exported so publish paths (dpsgd -publish) can fail fast
// before spending a training run on a name Publish would reject.
func ValidModelName(name string) error {
	if name == "" {
		return errors.New("serve: empty model name")
	}
	if strings.ContainsAny(name, `/\`) || strings.HasPrefix(name, ".") {
		return fmt.Errorf("serve: invalid model name %q", name)
	}
	return nil
}

// Publish registers (or replaces) the named version and persists it
// when the registry is directory-backed.
//
// Whether the new version goes live is a policy, not an unconditional
// side effect: a registry with no live model adopts the published one
// (the single-model dpsgd→dpserve path keeps working with zero
// ceremony), and a republish of the current live *name* follows it
// (the live designation names a version, not a pointer). Any other
// publish leaves traffic untouched — promotion is an explicit SetLive
// or a canary rollout (SetCanary → PromoteCanary), so publishing a new
// version into a multi-model registry can never steal 100% of traffic
// as a surprise.
//
// The persist step runs under mu: that ties on-disk rename order to
// in-memory registration order, so concurrent publishes of one name
// cannot leave the directory holding a different version than the one
// the process serves. (Publish is a management path; prediction never
// touches mu.)
func (r *Registry) Publish(name string, c eval.Classifier, meta map[string]string) (*Model, error) {
	if err := ValidModelName(name); err != nil {
		return nil, err
	}
	m, err := newModel(name, c, meta)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir != "" {
		if err := r.persist(m); err != nil {
			return nil, err
		}
	}
	r.models[name] = m
	// The live store happens inside the critical section too, so
	// concurrent same-name publishes cannot leave live pointing at a
	// superseded version the map and disk no longer hold.
	if cur := r.live.Load(); cur == nil || cur.Name == name {
		if r.dir != "" {
			if err := r.writeLiveFile(name); err != nil {
				return nil, err
			}
		}
		r.live.Store(m)
	}
	return m, nil
}

// persist writes the model file atomically: a same-directory temp file
// renamed into place, so a crash mid-write never leaves a torn file
// for the next NewRegistry to trip over (at worst it leaves a stale
// *.tmp, which the next NewRegistry sweeps). The temp name is unique
// per call (os.CreateTemp), so concurrent publishers of the same name
// — goroutines or separate dpsgd -publish processes — cannot
// interleave writes; last rename wins with both files intact. Callers
// hold mu; on success r.seen records the renamed file's stamp so the
// watch diff does not reload the registry's own writes.
func (r *Registry) persist(m *Model) error {
	f, err := os.CreateTemp(r.dir, m.Name+".*.tmp")
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	tmp := f.Name()
	f.Close()
	if err := eval.SaveClassifier(tmp, m.Classifier, m.Meta); err != nil {
		os.Remove(tmp)
		return err
	}
	// CreateTemp made the file 0600 and WriteFile's mode only applies
	// on creation; published files must match dpsgd -save's 0644 so a
	// registry stays readable across users.
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: %w", err)
	}
	final := filepath.Join(r.dir, m.Name+".json")
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: %w", err)
	}
	if fi, err := os.Stat(final); err == nil {
		st := fileStamp{mtime: fi.ModTime(), size: fi.Size(), seenAt: time.Now()}
		if crc, err := fileCRC(final); err == nil {
			st.crc = crc
		}
		r.seen[m.Name] = st
	}
	return nil
}

// SetLive hot-swaps the live model to the named version and, on a
// directory-backed registry, persists the designation so watching
// replicas follow the swap.
func (r *Registry) SetLive(name string) (*Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.models[name]
	if m == nil {
		return nil, fmt.Errorf("serve: no model %q (have %v)", name, r.namesLocked())
	}
	if r.dir != "" {
		if err := r.writeLiveFile(name); err != nil {
			return nil, err
		}
	}
	r.live.Store(m)
	return m, nil
}

// Live returns the current live model, or nil when none is set. The
// single atomic load is the whole synchronization story of the
// prediction hot path.
func (r *Registry) Live() *Model {
	return r.live.Load()
}

// Snapshot returns the live model and version count from one registry
// state. Because every live.Store happens under mu, reading both under
// the read lock cannot pair a model count with a live name the map
// never held together — the consistency /healthz reports rely on.
func (r *Registry) Snapshot() (live *Model, models int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live.Load(), len(r.models)
}

// Get returns the named version.
func (r *Registry) Get(name string) (*Model, bool) {
	r.mu.RLock()
	m, ok := r.models[name]
	r.mu.RUnlock()
	return m, ok
}

// Names returns the registered version names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := r.namesLocked()
	r.mu.RUnlock()
	return out
}

func (r *Registry) namesLocked() []string {
	out := make([]string, 0, len(r.models))
	for name := range r.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Models returns the registered versions sorted by name.
func (r *Registry) Models() []*Model {
	r.mu.RLock()
	out := make([]*Model, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered versions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}
