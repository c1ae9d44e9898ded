package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/eval"
)

// kddWorkload builds the serving fixture: a live linear model over the
// KDDSimSparse one-hot encoding (d = 122, ~12 nnz per row) behind a
// 4-worker server, and n test rows in sparse wire form.
func kddWorkload(tb testing.TB, n int) (http.Handler, []Row) {
	tb.Helper()
	r := rand.New(rand.NewSource(7))
	_, test := data.KDDSimSparse(r, 0.01)
	w := make([]float64, test.Dim())
	for i := range w {
		w[i] = r.NormFloat64()
	}
	reg, err := NewRegistry("")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := reg.Publish("kdd", &eval.Linear{W: w}, nil); err != nil {
		tb.Fatal(err)
	}
	rows := make([]Row, n)
	for i := range rows {
		sp, _ := test.AtSparse(i % test.Len())
		rows[i] = Row{Idx: append([]int(nil), sp.Idx...), Val: append([]float64(nil), sp.Val...)}
	}
	return New(reg, Config{Workers: 4}).Handler(), rows
}

// encodeCSRBatches packs row chunks into the columnar batch form.
func encodeCSRBatches(tb testing.TB, rows []Row, batch int) [][]byte {
	tb.Helper()
	type csrReq struct {
		Indptr []int     `json:"indptr"`
		Idx    []int     `json:"idx"`
		Val    []float64 `json:"val"`
	}
	var out [][]byte
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		indptr, idx, val, err := PackCSR(rows[lo:hi])
		if err != nil {
			tb.Fatal(err)
		}
		b, err := json.Marshal(csrReq{Indptr: indptr, Idx: idx, Val: val})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}
