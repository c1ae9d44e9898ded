// Package online closes the production loop the paper's "bolt-on"
// pitch implies: train → publish → serve → ingest → retrain. It ties
// the segment store (immutable appends behind fail-closed integrity
// checks), the continual trainer (per-window budget draws from one
// accountant) and the serving registry (canary rollout machinery) into
// a drift-driven retraining pipeline:
//
//	AppendSegment      new rows become visible only after the
//	                   integrity gate (store.AppendSegment)
//	detect             population statistics of the new segment —
//	                   label rate and mean margin under the live
//	                   model — are compared against the training-time
//	                   snapshot stamped into the live model's metadata
//	Retrain            past a threshold, one continual window is spent
//	                   on a warm-started retrain over the full union
//	Canary             the window model is published as a canary
//	                   version and routed a traffic fraction through
//	                   serve.Registry's staged-rollout machinery;
//	                   promotion and rollback are operator (or test)
//	                   decisions through the same state machine
//
// The privacy story is unchanged by any of this: every retrain draws
// its window from the accountant (fail-closed past the last window),
// the drift statistics are computed from raw data on the trusted side
// and never released — only the decision to retrain depends on them —
// and the published model's ledger audits every window.
package online

import (
	"fmt"
	"math"
	"strconv"

	"boltondp/internal/sgd"
	"boltondp/internal/vec"
)

// Snapshot is the population statistic pair the drift detector
// compares: the label rate (fraction of +1 labels) and the mean margin
// y·⟨w, x⟩ under a fixed model w. Both are one-number summaries that
// move when the data distribution moves: label-prior shift moves the
// first, covariate shift relative to the decision boundary moves the
// second even at a constant label rate.
type Snapshot struct {
	LabelRate  float64
	MeanMargin float64
}

// Stats computes the snapshot of s under model w. The sparse tier is
// used when s implements sgd.SparseSamples. An empty s or an empty w
// yields the zero snapshot.
func Stats(s sgd.Samples, w []float64) Snapshot {
	m := s.Len()
	if m == 0 {
		return Snapshot{}
	}
	var pos, margin float64
	if sp, ok := s.(sgd.SparseSamples); ok {
		for i := 0; i < m; i++ {
			x, y := sp.AtSparse(i)
			if y > 0 {
				pos++
			}
			margin += y * x.Dot(w)
		}
	} else {
		for i := 0; i < m; i++ {
			x, y := s.At(i)
			if y > 0 {
				pos++
			}
			margin += y * vec.Dot(x, w)
		}
	}
	return Snapshot{LabelRate: pos / float64(m), MeanMargin: margin / float64(m)}
}

// Thresholds are the maximum absolute shifts a segment may show before
// the detector fires. Zero fields fall back to the defaults.
type Thresholds struct {
	// LabelRate is the maximum |segment − baseline| label-rate shift
	// (default 0.2: a 20-point prior swing).
	LabelRate float64
	// Margin is the maximum |segment − baseline| mean-margin shift
	// (default 0.5).
	Margin float64
}

// defaultThresholds are the Thresholds zero-value fallbacks.
var defaultThresholds = Thresholds{LabelRate: 0.2, Margin: 0.5}

func (t Thresholds) withDefaults() Thresholds {
	if t.LabelRate == 0 {
		t.LabelRate = defaultThresholds.LabelRate
	}
	if t.Margin == 0 {
		t.Margin = defaultThresholds.Margin
	}
	return t
}

// Report is one drift decision: the compared snapshots, the absolute
// shifts, and whether either crossed its threshold.
type Report struct {
	// Segment names the ingested segment the decision is about.
	Segment string
	// Base is the training-time snapshot; Seg the new segment's.
	Base, Seg Snapshot
	// LabelShift and MarginShift are the absolute deviations.
	LabelShift, MarginShift float64
	// Fired reports whether either shift crossed its threshold.
	Fired bool
}

// detect compares a segment snapshot against the baseline under thr.
func detect(base, seg Snapshot, thr Thresholds) Report {
	thr = thr.withDefaults()
	r := Report{
		Base:        base,
		Seg:         seg,
		LabelShift:  math.Abs(seg.LabelRate - base.LabelRate),
		MarginShift: math.Abs(seg.MeanMargin - base.MeanMargin),
	}
	r.Fired = r.LabelShift > thr.LabelRate || r.MarginShift > thr.Margin
	return r
}

// Model-metadata keys the online tier stamps. The snapshot rides with
// the published model so a later process (or another replica) compares
// new segments against the statistics of the data the live model was
// actually trained on, not whatever happens to be in memory.
const (
	// metaLabelRate and metaMeanMargin persist the training snapshot.
	metaLabelRate  = "online.label_rate"
	metaMeanMargin = "online.mean_margin"
	// metaWindow records which continual window produced the model
	// (0 = the initial full training run).
	metaWindow = "online.window"
)

// StampMeta records the training snapshot and window index into a
// model-metadata map (alongside the accountant's ledger stamp).
func StampMeta(meta map[string]string, snap Snapshot, window int) {
	meta[metaLabelRate] = strconv.FormatFloat(snap.LabelRate, 'g', -1, 64)
	meta[metaMeanMargin] = strconv.FormatFloat(snap.MeanMargin, 'g', -1, 64)
	meta[metaWindow] = strconv.Itoa(window)
}

// snapshotFromMeta extracts a stamped training snapshot. ok is false
// when the map carries none.
func snapshotFromMeta(meta map[string]string) (snap Snapshot, ok bool, err error) {
	lr, okL := meta[metaLabelRate]
	mm, okM := meta[metaMeanMargin]
	if !okL || !okM {
		return Snapshot{}, false, nil
	}
	if snap.LabelRate, err = strconv.ParseFloat(lr, 64); err != nil {
		return Snapshot{}, true, fmt.Errorf("online: parsing %s: %w", metaLabelRate, err)
	}
	if snap.MeanMargin, err = strconv.ParseFloat(mm, 64); err != nil {
		return Snapshot{}, true, fmt.Errorf("online: parsing %s: %w", metaMeanMargin, err)
	}
	return snap, true, nil
}
