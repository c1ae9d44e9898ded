package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"boltondp/internal/eval"
)

// Registry watch: directory polling so N serving replicas over one
// shared registry directory converge on publishes and live-swaps
// without restart.
//
// The replication mechanism is the filesystem itself — the same choice
// the persistence layer already made. Every write into a registry
// directory is temp+rename (model files and the live designation
// alike), so a poller can never observe a half-written file: a scan
// sees the old content or the new content, atomically. That makes a
// plain (name, mtime, size) diff a sound change detector, and the
// convergence argument one sentence long: after any quiescent point,
// every replica's next successful scan loads exactly the set of
// renamed-in files and the designation they name, so all replicas
// converge on the publisher's state within one poll interval (the
// incremental-view-maintenance shape: maintain the artifact, swap on
// update, converge on the swap).
//
// Failure policy: a scan that cannot read the directory reports its
// error but the watcher keeps running (transient NFS hiccups must not
// kill a fleet); a model file that fails to load is skipped and
// retried next tick (it can only mean a reader/writer version skew or
// corruption — the file cannot be mid-write); the live designation is
// applied only when it names a loaded model, so a designation that
// races ahead of its model file lands one tick later. A replica never
// un-designates its live model just because the designation file
// vanished — serving the last good model beats serving nothing.

// DefaultWatchInterval is the poll interval Watch uses when the caller
// passes a non-positive one.
const DefaultWatchInterval = 2 * time.Second

// Watch polls the registry directory until ctx is cancelled, folding
// every observed change into the registry: new and republished model
// files are loaded and registered, deleted files are dropped, and the
// live designation file is followed. Scan errors are logged through
// the standard library logger and do not stop the watcher. Watch returns ctx.Err()
// once the context dies. Watching an in-memory registry is an error.
func (r *Registry) Watch(ctx context.Context) error {
	return r.WatchEvery(ctx, DefaultWatchInterval)
}

// WatchEvery is Watch at an explicit poll interval (every <= 0 polls
// at DefaultWatchInterval).
func (r *Registry) WatchEvery(ctx context.Context, every time.Duration) error {
	if r.dir == "" {
		return fmt.Errorf("serve: cannot watch an in-memory registry")
	}
	if every <= 0 {
		every = DefaultWatchInterval
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if err := r.Refresh(); err != nil {
				stdlog("serve: watch scan of %s: %v", r.dir, err)
			}
		}
	}
}

// Refresh performs one synchronous watch scan: diff the directory
// against the last-seen state, load what changed, drop what vanished,
// and follow the live designation. It is the unit Watch loops on,
// exported so tests (and operators wiring their own schedules) can
// drive convergence deterministically. The returned error aggregates
// per-file load failures; the rest of the scan still applies.
func (r *Registry) Refresh() error {
	if r.dir == "" {
		return fmt.Errorf("serve: cannot refresh an in-memory registry")
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	// Stat pass first, without the lock: loading a model file is the
	// expensive step and must not block predictions' Get/Snapshot.
	present := map[string]fileStamp{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // raced with a concurrent rename; next tick sees it
		}
		present[strings.TrimSuffix(e.Name(), ".json")] = fileStamp{mtime: fi.ModTime(), size: fi.Size()}
	}

	r.mu.RLock()
	changed := make([]string, 0, 4)
	verify := make([]string, 0, 2)
	for name, st := range present {
		have, ok := r.seen[name]
		switch {
		case !ok || have.mtime != st.mtime || have.size != st.size:
			changed = append(changed, name)
		case have.suspect():
			// Same cheap stamp, but recorded inside the rewrite-race
			// window — a same-second same-size republish would be
			// invisible to (mtime, size). Tiebreak on content CRC below.
			verify = append(verify, name)
		}
	}
	removed := make([]string, 0, 4)
	for name := range r.seen {
		if _, ok := present[name]; !ok {
			removed = append(removed, name)
		}
	}
	r.mu.RUnlock()

	scanAt := time.Now()
	verified := make(map[string]uint32, len(verify))
	for _, name := range verify {
		crc, err := fileCRC(filepath.Join(r.dir, name+".json"))
		if err != nil {
			continue // raced with a rename; the mtime diff catches it next tick
		}
		r.mu.RLock()
		same := r.seen[name].crc == crc
		r.mu.RUnlock()
		if same {
			verified[name] = crc
		} else {
			changed = append(changed, name)
		}
	}

	var errs []error
	loaded := make(map[string]*Model, len(changed))
	stamps := make(map[string]fileStamp, len(changed))
	for _, name := range changed {
		path := filepath.Join(r.dir, name+".json")
		c, meta, err := eval.LoadClassifier(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: loading %q: %w", name+".json", err))
			continue
		}
		m, err := newModel(name, c, meta)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		m.Published = present[name].mtime
		loaded[name] = m
		st := present[name]
		st.seenAt = time.Now()
		if crc, err := fileCRC(path); err == nil {
			st.crc = crc
		}
		stamps[name] = st
	}

	liveName, haveLive := r.readLiveFile()

	r.mu.Lock()
	// A clean CRC check moves seenAt forward; once the file's mtime
	// quantum has passed, suspect() goes false and polling is stat-only
	// again.
	for name, crc := range verified {
		if st, ok := r.seen[name]; ok && st.crc == crc {
			st.seenAt = scanAt
			r.seen[name] = st
		}
	}
	for name, m := range loaded {
		r.models[name] = m
		r.seen[name] = stamps[name]
		// The live designation names a version, not a pointer: a
		// republish of the live name from another replica swaps here
		// exactly as a local Publish would.
		if cur := r.live.Load(); cur != nil && cur.Name == name {
			r.live.Store(m)
		}
	}
	for _, name := range removed {
		delete(r.models, name)
		delete(r.seen, name)
		// The live pointer is deliberately left alone: a deleted live
		// file fails safe by serving the last good model.
	}
	if haveLive {
		if m := r.models[liveName]; m != nil && r.live.Load() != m {
			r.live.Store(m)
		}
	}
	r.mu.Unlock()

	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return nil
}

// stdlog is the default sink for operational log lines.
func stdlog(format string, args ...any) {
	log.Printf(format, args...)
}
