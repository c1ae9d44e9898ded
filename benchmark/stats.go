package main

import (
	"math"
	"sort"
)

// summary is what every metric is reported with. Value is the run's
// value of the metric: the median of its samples, but for a metric
// sampled per scoring window (metricSpec.Windowed) the best tenth.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reduces samples to n, median and quartiles. The quartiles
// follow Python's statistics.quantiles(values, n=4) (the exclusive
// method), the rule the benchmark's acceptance check uses, so a spread
// printed here is the spread that check computes.
func summarize(unit string, samples []float64) summary {
	d := summary{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return d
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d.Median = quantile(s, 2, 4)
	d.Q1, d.Q3 = quantile(s, 1, 4), quantile(s, 3, 4)
	d.Value = d.Median
	return d
}

// quantile returns the i-th of the cuts that divide sorted s into parts
// equal shares (i in 1..parts-1), as statistics.quantiles(s, n=parts).
func quantile(s []float64, i, parts int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / parts
	j = max(1, min(j, n-1))
	delta := float64(i*m - j*parts)
	return (s[j-1]*(float64(parts)-delta) + s[j]*delta) / float64(parts)
}

func median(samples []float64) float64 {
	return summarize("", samples).Median
}

// spread is the interquartile distance as a share of the median.
func (d summary) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return math.Abs((d.Q3 - d.Q1) / d.Median)
}

// summarize reduces the samples of metric m in one run. A windowed
// metric reads its best tenth (the first decile of a latency, the ninth
// of a rate): whatever disturbs a window — the host's slow stretches, a
// collection of the training rows still on the heap — only ever slows
// it, so the best tenth holds still until nine windows in ten are
// disturbed, where the median moves with how much of the run was. Ten
// runs of dense_mem spread (interquartile, as a share of the median) by
// 1.2% on predict_p50_us and 5.5% on predict_p99_us read this way, 5.6%
// and 21% read by the median.
func (m metricSpec) summarize(samples []float64) summary {
	d := summarize(m.Unit, samples)
	if m.Windowed && d.N > 0 {
		s := append([]float64(nil), samples...)
		sort.Float64s(s)
		d.Value = quantile(s, 1, 10)
		if m.Better == "higher" {
			d.Value = quantile(s, 9, 10)
		}
	}
	return d
}

// tailLevels are the percentiles a latency tail may be reported at, each
// with the share of samples that lies beyond it as one in beyond.
var tailLevels = []struct {
	p      float64
	beyond int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {90, 10}, {50, 2}}

// tailPercentile picks the highest level with at least ten samples
// beyond it, so a reported tail is never the single slowest request.
// It returns 0 when even the median has fewer than ten beyond it.
func tailPercentile(n int) float64 {
	for _, l := range tailLevels {
		if n/l.beyond >= 10 {
			return l.p
		}
	}
	return 0
}

// percentile reads the p-th percentile of sorted s (nearest rank).
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(1, min(rank, len(s)))-1]
}
