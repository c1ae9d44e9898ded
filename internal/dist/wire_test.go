package dist

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// TestVecRoundTrip: every float64 bit pattern that can appear in a
// model — negative zero, subnormals, extremes — must survive the wire
// exactly.
func TestVecRoundTrip(t *testing.T) {
	cases := [][]float64{
		{},
		{0},
		{0.5, -1.25, 3.5},
		{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Pi},
	}
	r := rand.New(rand.NewSource(1))
	big := make([]float64, 1000)
	for i := range big {
		big[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	}
	cases = append(cases, big)
	for _, w := range cases {
		got, err := encodeVec(w).Decode()
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if len(got) != len(w) {
			t.Fatalf("len %d != %d", len(got), len(w))
		}
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Fatalf("w[%d]: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(w[i]))
			}
		}
	}
}

// TestVecFailClosed: any inconsistency between the three wireVec fields is
// an error, never a silently wrong vector.
func TestVecFailClosed(t *testing.T) {
	v := encodeVec([]float64{1, 2, 3})
	cases := map[string]wireVec{
		"bad base64":     {N: v.N, B64: "!!!not base64!!!", CRC: v.CRC},
		"short count":    {N: 2, B64: v.B64, CRC: v.CRC},
		"long count":     {N: 4, B64: v.B64, CRC: v.CRC},
		"bad checksum":   {N: v.N, B64: v.B64, CRC: v.CRC ^ 1},
		"negative count": {N: -1, B64: "", CRC: 0},
		// 8·N wraps to 0 here, and the CRC of no bytes is 0: a check
		// that multiplies passes this vector on to make([]float64, N).
		"count overflows": {N: 1 << 61, B64: "", CRC: 0},
		"ragged payload":  {N: 0, B64: "AAAA", CRC: 0xff41d912},
	}
	for name, bad := range cases {
		if _, err := bad.Decode(); err == nil {
			t.Errorf("%s: Decode accepted a corrupt vector", name)
		}
	}
}

// FuzzVecDecode: no (N, B64, CRC) makes Decode panic, and a decoded
// vector has N elements and survives a re-encode bit for bit. The seeds
// are the committed golden vectors plus the overflow shape.
func FuzzVecDecode(f *testing.F) {
	for _, file := range []string{"epoch_request.golden.json", "epoch_response.golden.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		var msg struct {
			W    wireVec  `json:"w"`
			WAvg *wireVec `json:"w_avg"`
		}
		if err := json.Unmarshal(raw, &msg); err != nil {
			f.Fatal(err)
		}
		f.Add(msg.W.N, msg.W.B64, msg.W.CRC)
		if msg.WAvg != nil {
			f.Add(msg.WAvg.N, msg.WAvg.B64, msg.WAvg.CRC)
		}
	}
	f.Add(1<<61, "", uint32(0))
	f.Fuzz(func(t *testing.T, n int, b64 string, crc uint32) {
		out, err := wireVec{N: n, B64: b64, CRC: crc}.Decode()
		if err != nil {
			return
		}
		if len(out) != n {
			t.Fatalf("decoded %d elements, N says %d", len(out), n)
		}
		back, err := encodeVec(out).Decode()
		if err != nil {
			t.Fatalf("re-encoded vector rejected: %v", err)
		}
		for i := range out {
			if math.Float64bits(back[i]) != math.Float64bits(out[i]) {
				t.Fatalf("w[%d]: %x != %x after re-encode", i, math.Float64bits(back[i]), math.Float64bits(out[i]))
			}
		}
	})
}

// TestLossSpecRoundTrip: spec → Build must reproduce the exact struct
// fields (no constructor re-defaulting of R on the worker side).
func TestLossSpecRoundTrip(t *testing.T) {
	fns := []loss.Function{
		loss.NewLogistic(1e-3, 0),   // R defaults to 1/λ
		loss.NewLogistic(0, 0),      // unregularized
		loss.NewHuber(0.1, 1e-4, 0), // paper's Huber SVM
		loss.NewLeastSquares(1e-2, 0),
	}
	for _, f := range fns {
		spec, err := LossSpecFor(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		back, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", f.Name(), err)
		}
		if got, want := back.Params(), f.Params(); got != want {
			t.Errorf("%s: params %+v != %+v after wire round-trip", f.Name(), got, want)
		}
		if back.Name() != f.Name() {
			t.Errorf("name %q != %q after wire round-trip", back.Name(), f.Name())
		}
	}
	if _, err := LossSpecFor(&customLoss{}); err == nil {
		t.Error("custom loss accepted; it has no wire identity")
	}
}

type customLoss struct{ loss.Logistic }

func (c *customLoss) Name() string { return "custom" }

// TestStepSpecRoundTrip: each schedule kind must rebuild to the same
// η_t sequence (schedules are pure functions of the spec numbers).
func TestStepSpecRoundTrip(t *testing.T) {
	cases := []struct {
		spec StepSpec
		want sgd.Schedule
	}{
		{StepSpec{Kind: StepConstant, Eta: 0.05}, sgd.Constant(0.05)},
		{StepSpec{Kind: StepDecreasing, Beta: 0.25, M: 100, C: 0.5}, sgd.DecreasingConvex(0.25, 100, 0.5)},
		{StepSpec{Kind: StepSqrt, Beta: 0.25, M: 100, C: 0.5}, sgd.SqrtConvex(0.25, 100, 0.5)},
		{StepSpec{Kind: StepStronglyConvex, Beta: 0.25, Gamma: 0.001}, sgd.StronglyConvexPaper(0.25, 0.001)},
	}
	for _, tc := range cases {
		got, err := tc.spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Kind, err)
		}
		for _, tt := range []int{1, 2, 10, 1000, 100000} {
			if g, w := got.Eta(tt), tc.want.Eta(tt); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: η(%d) = %v, want %v", tc.spec.Kind, tt, g, w)
			}
		}
	}
	for name, bad := range map[string]StepSpec{
		"unknown kind": {Kind: "warp"},
		"bad beta":     {Kind: StepSqrt, Beta: -1, M: 10},
		"bad gamma":    {Kind: StepStronglyConvex, Beta: 1, Gamma: 0},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("%s: Build accepted an invalid spec", name)
		}
	}
}

// TestCheckVersion pins the fail-closed version gate and its error
// wording (operators grep for "version skew").
func TestCheckVersion(t *testing.T) {
	if err := checkVersion(ProtocolVersion); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	err := checkVersion(ProtocolVersion + 1)
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("skew error %q does not name the condition", err)
	}
}
