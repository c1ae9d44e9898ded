package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
)

// The oracle of the request codec (wire.go): the request and reply
// structs the two scoring routes decoded into and encoded from through
// encoding/json, and the handlers' flow over them, as they stood before
// the codec replaced them. FuzzScoreRequestDiff holds the codec to
// these; bench_test.go's fixtures encode their bodies with them.

type predictRequest struct {
	// Model selects a named version; empty means the live model.
	Model string `json:"model,omitempty"`
	Row
}

type predictResponse struct {
	Model string  `json:"model"`
	Label float64 `json:"label"`
}

type batchRequest struct {
	Model  string    `json:"model,omitempty"`
	Indptr []int     `json:"indptr,omitempty"`
	Idx    []int     `json:"idx,omitempty"`
	Val    []float64 `json:"val,omitempty"`
}

type batchResponse struct {
	Model  string    `json:"model"`
	Labels []float64 `json:"labels"`
}

// oracleDecode is the old Server.decode plus the one rule the codec
// adds: json.Decoder stops at the end of the first value, the codec
// reads the whole body and takes only white space after it.
func oracleDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("trailing %q", rest[0])
	}
	return nil
}

// oraclePredict is the old handlePredict: the status and, on 200, the
// label.
func oraclePredict(s *Server, body []byte) (int, []float64) {
	var req predictRequest
	if oracleDecode(body, &req) != nil {
		return http.StatusBadRequest, nil
	}
	m, code, err := s.model(req.Model)
	if err != nil {
		return code, nil
	}
	y, err := m.Score(&req.Row)
	if err != nil {
		return http.StatusBadRequest, nil
	}
	return http.StatusOK, []float64{y}
}

// oracleBatch is the old handleBatch without canary routing, with the
// one batch form: a body without a columnar batch is a 400.
func oracleBatch(s *Server, body []byte) (int, []float64) {
	var req batchRequest
	if oracleDecode(body, &req) != nil || len(req.Indptr) < 2 {
		return http.StatusBadRequest, nil
	}
	if len(req.Indptr)-1 > s.cfg.MaxBatch {
		return http.StatusRequestEntityTooLarge, nil
	}
	m, code, err := s.model(req.Model)
	if err != nil {
		return code, nil
	}
	labels, err := m.scoreBatchCSR(context.Background(), nil, req.Indptr, req.Idx, req.Val, s.cfg.Workers, !s.cfg.Float64Batch, nil)
	if err != nil {
		return http.StatusBadRequest, nil
	}
	return http.StatusOK, labels
}

// sameFields reports how the codec's decoded request differs from the
// oracle's: nil-ness, lengths and every element by its bits.
func sameFields(got *wireRequest, model string, x, val []float64, idx, indptr []int) error {
	if got.model != model {
		return fmt.Errorf("model %q, oracle %q", got.model, model)
	}
	intBits := func(v int) uint64 { return uint64(v) }
	return errors.Join(
		sameSlice("x", got.x.slice(), x, math.Float64bits),
		sameSlice("val", got.val.slice(), val, math.Float64bits),
		sameSlice("idx", got.idx.slice(), idx, intBits),
		sameSlice("indptr", got.indptr.slice(), indptr, intBits))
}

func sameSlice[T int | float64](name string, got, want []T, bits func(T) uint64) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("%s: nil=%v len=%d, oracle nil=%v len=%d", name, got == nil, len(got), want == nil, len(want))
	}
	for i := range got {
		if bits(got[i]) != bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v, oracle %v", name, i, got[i], want[i])
		}
	}
	return nil
}
