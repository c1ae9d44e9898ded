package compose

import "testing"

// BenchmarkRDPConvert times the ε(δ) conversion over the full order
// grid — the hot path of every RDP-rule Spent/Reserve (it runs once per
// trial-priced reservation and once per admission).
func BenchmarkRDPConvert(b *testing.B) {
	orders := Orders()
	curve := make([]float64, len(orders))
	for i, a := range orders {
		curve[i] = float64(kddSteps) * sgmRDP(kddSigma, kddBatch/kddRows, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eps := convertRDP(orders, curve, kddDelta); eps <= 0 {
			b.Fatal("conversion collapsed")
		}
	}
}

// BenchmarkSGMRDPCurve times building the full subsampled-Gaussian
// curve for one step — the per-event cost of admitting a
// gradient-perturbation run.
func BenchmarkSGMRDPCurve(b *testing.B) {
	orders := Orders()
	for i := 0; i < b.N; i++ {
		for _, a := range orders {
			if sgmRDP(kddSigma, kddBatch/kddRows, a) < 0 {
				b.Fatal("negative curve")
			}
		}
	}
}
