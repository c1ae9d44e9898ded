package serve

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Canary rollout: route a deterministic fraction of batch rows to a
// candidate model version, watch its error rate, and either promote it
// live or roll it back automatically.
//
// State machine (DESIGN.md §10 has the full table):
//
//	inactive --SetCanary(name,pct)--> active(name,pct)
//	active --PromoteCanary--> inactive   (canary becomes live)
//	active --error-rate > threshold--> inactive (automatic rollback,
//	         recorded in the rollback counter and /metrics)
//
// Routing is deterministic: a row goes to the canary iff
// rowBucket(row) < pct, where rowBucket hashes the coordinates of the
// canonical row (sorted indices, duplicates summed) into [0,100). The
// same row always lands on the same side — across requests, replicas,
// retries and spellings of its pairs — so a misrouted-row fraction is an
// exact function of the row set, not a sampling accident, and A/B
// comparisons of a specific row are meaningful. Only live-model batch
// requests route; single-row /predict and requests naming an explicit
// model version always score on the addressed model.
//
// Fail-safe scoring: a canary row whose canary scoring errors (wrong
// dimension, version skew) counts an error and falls back to the live
// model, so a broken canary degrades the rollout — never the request.

// canaryState is one canary deployment: an immutable designation plus
// its (atomic) outcome counters. SetCanary installs a fresh state, so
// counters always describe exactly one rollout.
type canaryState struct {
	model *Model
	pct   int

	rows   atomic.Uint64 // rows routed to the canary
	errors atomic.Uint64 // canary scoring failures (fell back to live)
}

// SetCanary starts a staged rollout: pct percent of live-model batch
// rows (deterministically selected by row hash) score on the named
// version instead of the live model. pct must be in [0,100]; the name
// must be registered. A subsequent SetCanary replaces the rollout and
// resets its counters.
func (r *Registry) SetCanary(name string, pct int) error {
	if pct < 0 || pct > 100 {
		return fmt.Errorf("serve: canary percentage %d outside [0,100]", pct)
	}
	r.mu.RLock()
	m := r.models[name]
	r.mu.RUnlock()
	if m == nil {
		return fmt.Errorf("serve: no model %q (have %v)", name, r.Names())
	}
	r.canary.Store(&canaryState{model: m, pct: pct})
	return nil
}

// Canary reports the active rollout: the candidate model, its traffic
// percentage, and the rows/errors it has scored so far. model == nil
// means no rollout is active.
func (r *Registry) Canary() (model *Model, pct int, rows, errs uint64) {
	cs := r.canary.Load()
	if cs == nil {
		return nil, 0, 0, 0
	}
	return cs.model, cs.pct, cs.rows.Load(), cs.errors.Load()
}

// PromoteCanary ends the rollout by making the canary version live
// (persisting the designation on a directory-backed registry, so
// watching replicas follow the promotion).
func (r *Registry) PromoteCanary() (*Model, error) {
	cs := r.canary.Load()
	if cs == nil {
		return nil, fmt.Errorf("serve: no canary to promote")
	}
	m, err := r.SetLive(cs.model.Name)
	if err != nil {
		return nil, err
	}
	// Only clear the rollout we promoted: a concurrent SetCanary must
	// not be wiped by a stale promotion.
	r.canary.CompareAndSwap(cs, nil)
	return m, nil
}

// rollbackCanary ends the given rollout if it is still the active one
// — the automatic-rollback path. The compare-and-swap makes rollback
// idempotent across concurrent batches and can never cancel a newer
// rollout installed after the regression was measured.
func (r *Registry) rollbackCanary(cs *canaryState) bool {
	return r.canary.CompareAndSwap(cs, nil)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a state, byte by byte.
func fnvMix(h, x uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (x >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// rowBucket hashes one canonical coordinate-form row into [0,100) — the
// deterministic canary routing key. FNV-1a over the (index, value)
// words: cheap (a few ns per nonzero), stable across processes, and
// independent of batch framing.
func rowBucket(idx []int, val []float64) int {
	h := uint64(fnvOffset64)
	for k := range idx {
		h = fnvMix(h, uint64(idx[k]))
		h = fnvMix(h, math.Float64bits(val[k]))
	}
	return int(h % 100)
}
