package online

import (
	"context"
	"fmt"
	"log"

	"boltondp/internal/core"
	"boltondp/internal/eval"
	"boltondp/internal/serve"
	"boltondp/internal/sgd"
	"boltondp/internal/store"
)

// Runner wires the online loop together over one segment directory and
// one registry. It is deliberately mechanism-free: every privacy
// decision lives in the ContinualTrainer's accountant, every
// visibility decision in the store's manifest commit, and every
// rollout decision in the registry's canary state machine — the Runner
// only sequences them.
//
// The Runner serves binary linear models (*eval.Linear): the drift
// margin statistic and the warm start are defined on one weight
// vector. One-vs-all models would need a per-class loop here and a
// per-class budget story; they stay on the full-retrain path.
type Runner struct {
	// Dir is the segment directory holding the training data union.
	Dir *store.Dir
	// Registry is the serving registry the live model is published in
	// (directory-backed for the dpserve-compatible path, but an
	// in-memory registry works for tests).
	Registry *serve.Registry
	// Trainer draws one budget window per drift-triggered retrain.
	Trainer *core.ContinualTrainer
	// Thresholds configure the drift detector (zero = defaults).
	Thresholds Thresholds
	// CanaryPct is the traffic fraction a drift-triggered canary gets
	// (default 10).
	CanaryPct int
	// Logf receives operational log lines; nil logs via the standard
	// library logger.
	Logf func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// liveLinear returns the live model and its weight vector.
func (r *Runner) liveLinear() (*serve.Model, []float64, error) {
	live := r.Registry.Live()
	if live == nil {
		return nil, nil, fmt.Errorf("online: registry has no live model")
	}
	lin, ok := live.Classifier.(*eval.Linear)
	if !ok {
		return nil, nil, fmt.Errorf("online: live model %q is %T, the online loop serves binary *eval.Linear models", live.Name, live.Classifier)
	}
	return live, lin.W, nil
}

// baseline resolves the snapshot new segments are compared against:
// the one stamped into the live model's metadata, else the pre-ingest
// training union under the live weights.
func (r *Runner) baseline(w []float64, oldLen int, meta map[string]string) (Snapshot, error) {
	if snap, ok, err := snapshotFromMeta(meta); ok {
		if err != nil {
			return Snapshot{}, err
		}
		return snap, nil
	}
	return Stats(r.Dir.Shard(0, oldLen), w), nil
}

// Ingest appends one batch of rows as a new segment (fail-closed: rows
// that violate the directory's integrity invariants never become
// visible), runs the drift detector over the new segment under the
// live model, and — when it fires — spends one continual window on a
// warm-started retrain and publishes the result as a canary version
// "<live>-w<k>" at CanaryPct traffic. Promoting that canary is a
// separate operator decision (Promote); until then the registry's
// automatic rollback or the next window's canary can end it.
//
// The returned Report carries the drift decision whether or not it
// fired; rep.Fired && err == nil means a canary is now staged.
func (r *Runner) Ingest(ctx context.Context, src sgd.SparseSamples, opt store.Options) (*Report, error) {
	live, w, err := r.liveLinear()
	if err != nil {
		return nil, err
	}
	oldLen := r.Dir.Len()

	seg, err := store.AppendSegment(r.Dir.Path(), src, opt)
	if err != nil {
		return nil, fmt.Errorf("online: ingest rejected: %w", err)
	}
	if err := r.Dir.Reload(); err != nil {
		return nil, err
	}

	base, err := r.baseline(w, oldLen, live.Meta)
	if err != nil {
		return nil, err
	}
	cur := Stats(r.Dir.Shard(oldLen, r.Dir.Len()), w)
	rep := detect(base, cur, r.Thresholds)
	rep.Segment = seg
	if !rep.Fired {
		r.logf("online: segment %s ingested, no drift (Δlabel=%.3f Δmargin=%.3f)", seg, rep.LabelShift, rep.MarginShift)
		return &rep, nil
	}
	r.logf("online: segment %s drifted (Δlabel=%.3f Δmargin=%.3f), retraining window %d/%d",
		seg, rep.LabelShift, rep.MarginShift, r.Trainer.Window()+1, r.Trainer.Windows())

	if r.Trainer.Weights() == nil {
		// First window of this process: warm-start from the live
		// (released, hence data-independent) model.
		r.Trainer.SetWarmStart(w)
	}
	res, err := r.Trainer.Retrain(ctx, r.Dir)
	if err != nil {
		return &rep, err
	}

	window := r.Trainer.Window()
	name := fmt.Sprintf("%s-w%d", live.Name, window)
	meta := map[string]string{}
	if err := r.Trainer.Accountant().StampMeta(meta); err != nil {
		return &rep, err
	}
	StampMeta(meta, Stats(r.Dir, res.W), window)
	if _, err := r.Registry.Publish(name, &eval.Linear{W: res.W}, meta); err != nil {
		return &rep, err
	}
	pct := r.CanaryPct
	if pct == 0 {
		pct = 10
	}
	if err := r.Registry.SetCanary(name, pct); err != nil {
		return &rep, err
	}
	r.logf("online: window %d model published as canary %q at %d%%", window, name, pct)
	return &rep, nil
}

// Promote makes the staged canary live (the rollout succeeded).
func (r *Runner) Promote() (*serve.Model, error) {
	return r.Registry.PromoteCanary()
}
