package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"boltondp/internal/data"
	"boltondp/internal/loss"
)

// testShard returns an install request for one whole-set shard of a
// temp-store training set under job, and the matching epoch-0 request.
func testShard(t *testing.T, job string) (*shardRequest, *epochRequest) {
	t.Helper()
	ds := data.Synthetic(rand.New(rand.NewSource(5)), data.GenConfig{M: 60, D: 6, Classes: 2, Spread: 1})
	man, err := NewStoreSource(TempStore(t, data.FromDense(ds))).manifest(0, 0, ds.Len())
	if err != nil {
		t.Fatal(err)
	}
	lossSpec, err := LossSpecFor(loss.NewLogistic(1e-2, 0))
	if err != nil {
		t.Fatal(err)
	}
	return &shardRequest{
			Version: ProtocolVersion, Job: job, Manifest: *man, Seed: 77,
			Spec: TrainSpec{Loss: lossSpec, Step: StepSpec{Kind: StepConstant, Eta: 0.1}, Batch: 4, Radius: 50},
		}, &epochRequest{
			Version: ProtocolVersion, Job: job, Shard: 0,
			Epoch: 0, Passes: 1, W: encodeVec(make([]float64, ds.Dim())),
		}
}

// post serves one JSON request on the worker's handler under ctx.
func post(t *testing.T, wk *Worker, ctx context.Context, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)).WithContext(ctx))
	return rec
}

// TestEpochHonoursRequestContext: an epoch whose request context is
// already done is refused instead of run to the end, and the next fresh
// epoch-0 request answers the same bytes as a worker that never saw the
// cancelled one — the failed run forces a rewind of the permutation
// stream.
func TestEpochHonoursRequestContext(t *testing.T) {
	install, epoch0 := testShard(t, "ctx")
	cancelled, fresh := NewWorker(), NewWorker()
	defer cancelled.Close()
	defer fresh.Close()
	for _, wk := range []*Worker{cancelled, fresh} {
		if rec := post(t, wk, context.Background(), pathShard, install); rec.Code != http.StatusOK {
			t.Fatalf("install: %d %s", rec.Code, rec.Body)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := post(t, cancelled, ctx, pathEpoch, epoch0); rec.Code == http.StatusOK {
		t.Fatalf("epoch with a cancelled context answered 200: %s", rec.Body)
	}

	got := post(t, cancelled, context.Background(), pathEpoch, epoch0)
	want := post(t, fresh, context.Background(), pathEpoch, epoch0)
	if got.Code != http.StatusOK || want.Code != http.StatusOK {
		t.Fatalf("epoch 0: %d %s / %d %s", got.Code, got.Body, want.Code, want.Body)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("epoch 0 after a cancelled run differs from an untouched worker's:\n got %s\nwant %s", got.Body, want.Body)
	}
}

// TestReleaseDuringEpoch: an epoch that looked its shard up before the
// job was released answers 404 and never touches the closed reader.
// The test holds the shard's lock, so the epoch and the release both
// wait on it; whichever gets it first, the epoch finds the shard gone.
func TestReleaseDuringEpoch(t *testing.T) {
	wk := NewWorker()
	defer wk.Close()
	install, epoch0 := testShard(t, "rel")
	if rec := post(t, wk, context.Background(), pathShard, install); rec.Code != http.StatusOK {
		t.Fatalf("install: %d %s", rec.Code, rec.Body)
	}
	st := wk.shard("rel", 0)
	st.mu.Lock()

	epoch := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		wk.serveEpoch(context.Background(), rec, epoch0, st)
		epoch <- rec
	}()
	body, _ := json.Marshal(&releaseRequest{Version: ProtocolVersion, Job: "rel"}) // a plain struct: cannot fail
	release := make(chan *httptest.ResponseRecorder)
	go func() {
		rec := httptest.NewRecorder()
		wk.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathRelease, bytes.NewReader(body)))
		release <- rec
	}()
	for wk.shard("rel", 0) != nil {
		runtime.Gosched() // the release drops the job before it waits for the shard's lock
	}
	st.mu.Unlock()

	if rec := <-epoch; rec.Code != http.StatusNotFound {
		t.Fatalf("epoch on a released shard: %d %s, want 404", rec.Code, rec.Body)
	}
	rec := <-release
	var resp releaseResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Shards != 1 {
		t.Fatalf("release: %d %s, want 200 freeing 1 shard", rec.Code, rec.Body)
	}
}
