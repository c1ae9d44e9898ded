package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/loss"
)

// TestEpochHonoursRequestContext: an epoch whose request context is
// already done is refused instead of run to the end, and the next fresh
// epoch-0 request answers the same bytes as a worker that never saw the
// cancelled one — the failed run forces a rewind of the permutation
// stream.
func TestEpochHonoursRequestContext(t *testing.T) {
	ds := data.Synthetic(rand.New(rand.NewSource(5)), data.GenConfig{M: 60, D: 6, Classes: 2, Spread: 1})
	man, err := NewInlineSource(ds).manifest(0, 0, ds.Len())
	if err != nil {
		t.Fatal(err)
	}
	lossSpec, err := LossSpecFor(loss.NewLogistic(1e-2, 0))
	if err != nil {
		t.Fatal(err)
	}
	install := &ShardRequest{
		Version: ProtocolVersion, Job: "ctx", Manifest: *man, Seed: 77,
		Spec: TrainSpec{Loss: lossSpec, Step: StepSpec{Kind: StepConstant, Eta: 0.1}, Batch: 4, Radius: 50},
	}
	epoch0 := &EpochRequest{
		Version: ProtocolVersion, Job: "ctx", Shard: 0,
		Epoch: 0, Passes: 1, W: EncodeVec(make([]float64, ds.Dim())),
	}
	post := func(wk *Worker, ctx context.Context, path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)).WithContext(ctx))
		return rec
	}

	cancelled, fresh := NewWorker(), NewWorker()
	defer cancelled.Close()
	defer fresh.Close()
	for _, wk := range []*Worker{cancelled, fresh} {
		if rec := post(wk, context.Background(), PathShard, install); rec.Code != http.StatusOK {
			t.Fatalf("install: %d %s", rec.Code, rec.Body)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := post(cancelled, ctx, PathEpoch, epoch0); rec.Code == http.StatusOK {
		t.Fatalf("epoch with a cancelled context answered 200: %s", rec.Body)
	}

	got := post(cancelled, context.Background(), PathEpoch, epoch0)
	want := post(fresh, context.Background(), PathEpoch, epoch0)
	if got.Code != http.StatusOK || want.Code != http.StatusOK {
		t.Fatalf("epoch 0: %d %s / %d %s", got.Code, got.Body, want.Code, want.Body)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("epoch 0 after a cancelled run differs from an untouched worker's:\n got %s\nwant %s", got.Body, want.Body)
	}
}
