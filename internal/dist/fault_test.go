package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"boltondp/internal/account"
	"boltondp/internal/core"
	"boltondp/internal/data"
	"boltondp/internal/dist"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/loss"
	"boltondp/internal/sgd"
)

// faultSetup builds the dataset, spec and single-process baseline the
// fault tests compare against: the invariant under every injected
// fault is EITHER bit-identical recovery OR a clean abort — never a
// silently different model.
type faultSetup struct {
	src  *dist.Source
	spec dist.TrainSpec
	want *engine.Result
}

func newFaultSetup(t *testing.T) *faultSetup {
	t.Helper()
	ds := data.Synthetic(rand.New(rand.NewSource(31)), data.GenConfig{M: 120, D: 12, Classes: 2, Spread: 1.2})
	rd := dist.TempStore(t, data.FromDense(ds))
	f := loss.NewLogistic(1e-2, 0)
	want, err := engine.Run(rd, engine.Config{
		Strategy: engine.Sharded, Workers: 2,
		SGD: sgd.Config{
			Loss: f, Step: sgd.Constant(0.1), Passes: 3, Batch: 4,
			Radius: 50, Average: true,
			Rand: rand.New(rand.NewSource(13)),
		},
	})
	if err != nil {
		t.Fatalf("engine.Run: %v", err)
	}
	return &faultSetup{
		src: dist.NewStoreSource(rd),
		spec: dist.TrainSpec{
			Loss:    mustLossSpec(t, f),
			Step:    dist.StepSpec{Kind: dist.StepConstant, Eta: 0.1},
			Batch:   4,
			Radius:  50,
			Average: true,
		},
		want: want,
	}
}

func (fs *faultSetup) train(t *testing.T, coord *dist.Coordinator, ctx context.Context) (*engine.Result, error) {
	t.Helper()
	return coord.Train(ctx, fs.src, dist.Job{
		ID: "fault", Spec: fs.spec, Shards: 2, Passes: 3,
	}, rand.New(rand.NewSource(13)))
}

// requireReleased fails unless every worker's /dist/healthz reports no
// job and no shard held: Train released the job however it ended.
func (p *pool) requireReleased(t *testing.T) {
	t.Helper()
	for _, u := range p.urls {
		resp, err := http.Get(u + dist.PathHealthz)
		if err != nil {
			t.Fatal(err)
		}
		var h dist.HealthResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Jobs != 0 || h.Shards != 0 {
			t.Fatalf("worker %s holds %d job(s), %d shard(s) after Train returned; want 0", u, h.Jobs, h.Shards)
		}
	}
}

// TestReleaseAfterTrain: a finished run leaves no shard on any worker,
// for the delegated single shard and for a merge.
func TestReleaseAfterTrain(t *testing.T) {
	fs := newFaultSetup(t)
	for _, P := range []int{1, 2} {
		p := newPool(t, 2)
		if _, err := p.coord.Train(context.Background(), fs.src, dist.Job{
			ID: "release", Spec: fs.spec, Shards: P, Passes: 3,
		}, rand.New(rand.NewSource(13))); err != nil {
			t.Fatalf("P=%d: Train: %v", P, err)
		}
		p.requireReleased(t)
	}
}

// dieAfter serves the first n epoch requests, then answers 503 to
// everything — a worker that trained for a while and fell over.
func dieAfter(n int) func(int, http.Handler) http.Handler {
	return func(_ int, inner http.Handler) http.Handler {
		var mu sync.Mutex
		served := 0
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == dist.PathEpoch {
				mu.Lock()
				served++
				dead := served > n
				mu.Unlock()
				if dead {
					http.Error(w, "worker died", http.StatusServiceUnavailable)
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
}

// TestFaultWorkerDiesMidRun kills one worker after its first epoch
// response: the coordinator must retry, declare it dead, reassign its
// shard to the surviving worker — whose deterministic rewind replays
// the dead worker's permutation stream — and finish bit-identical to
// the clean single-process run.
func TestFaultWorkerDiesMidRun(t *testing.T) {
	fs := newFaultSetup(t)
	p := &pool{coord: dist.NewCoordinator(dist.CoordinatorConfig{Retries: 1, Backoff: 0})}
	first := true
	p.addWorkers(t, 2, func(i int, h http.Handler) http.Handler {
		if first {
			first = false
			return dieAfter(1)(i, h)
		}
		return h
	})

	got, err := fs.train(t, p.coord, context.Background())
	if err != nil {
		t.Fatalf("Train with dying worker: %v", err)
	}
	bitsEqual(t, "W after reassignment", got.W, fs.want.W)
	bitsEqual(t, "WAvg after reassignment", got.WAvg, fs.want.WAvg)
	if live := p.coord.Workers(); len(live) != 1 {
		t.Fatalf("live workers = %v, want exactly the survivor", live)
	}
}

// TestFaultAllWorkersDie exhausts the pool: with every worker dead the
// run must abort fail-closed, not return a partial average.
func TestFaultAllWorkersDie(t *testing.T) {
	fs := newFaultSetup(t)
	p := &pool{coord: dist.NewCoordinator(dist.CoordinatorConfig{Retries: 1, Backoff: 0})}
	p.addWorkers(t, 2, dieAfter(0))

	if _, err := fs.train(t, p.coord, context.Background()); err == nil {
		t.Fatal("Train with no surviving workers succeeded; want fail-closed abort")
	} else if !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("abort error %q does not name the cause", err)
	}
	p.requireReleased(t)
}

// flakyFirstAttempt fails the first delivery of every distinct epoch
// request with 503 and serves the retry — deterministic transient
// flakiness. Same-worker retry must absorb it with zero drift.
func flakyFirstAttempt() func(int, http.Handler) http.Handler {
	return func(_ int, inner http.Handler) http.Handler {
		var mu sync.Mutex
		seen := map[string]bool{}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == dist.PathEpoch {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req dist.EpochRequest
				if json.Unmarshal(body, &req) == nil {
					key := req.Job + "/" + string(rune('0'+req.Shard)) + "/" + string(rune('0'+req.Epoch))
					mu.Lock()
					firstTime := !seen[key]
					seen[key] = true
					mu.Unlock()
					if firstTime {
						http.Error(w, "transient flake", http.StatusServiceUnavailable)
						return
					}
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
}

// TestFaultFlakyWorkerRetry: every epoch request fails once and
// succeeds on the same-worker retry. The worker processed nothing on
// the failed delivery, so the retry path alone must preserve parity.
func TestFaultFlakyWorkerRetry(t *testing.T) {
	fs := newFaultSetup(t)
	p := &pool{coord: dist.NewCoordinator(dist.CoordinatorConfig{Retries: 2, Backoff: 0})}
	p.addWorkers(t, 2, flakyFirstAttempt())

	got, err := fs.train(t, p.coord, context.Background())
	if err != nil {
		t.Fatalf("Train with flaky workers: %v", err)
	}
	bitsEqual(t, "W under flaky delivery", got.W, fs.want.W)
	bitsEqual(t, "WAvg under flaky delivery", got.WAvg, fs.want.WAvg)
	if live := p.coord.Workers(); len(live) != 2 {
		t.Fatalf("flaky-but-recovering workers were declared dead: live=%v", live)
	}
}

// tamperEpoch rewrites the epoch echo of the first (or every) epoch
// response — the stale/misrouted-model hazard the coordinator must
// reject fail-closed.
func tamperEpoch(always bool) func(int, http.Handler) http.Handler {
	return func(_ int, inner http.Handler) http.Handler {
		var mu sync.Mutex
		tampered := false
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != dist.PathEpoch {
				inner.ServeHTTP(w, r)
				return
			}
			mu.Lock()
			tamper := always || !tampered
			tampered = true
			mu.Unlock()
			if !tamper {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
			var resp dist.EpochResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			resp.Epoch++ // the model is real, but from the wrong epoch
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(resp)
		})
	}
}

// TestFaultStaleEpochRejected: a response carrying a wrong epoch echo
// must never enter an average. With a second worker available the
// shard is reassigned and the run recovers bit-identically; with no
// alternative the run aborts.
func TestFaultStaleEpochRejected(t *testing.T) {
	t.Run("recovers", func(t *testing.T) {
		fs := newFaultSetup(t)
		p := &pool{coord: dist.NewCoordinator(dist.CoordinatorConfig{Retries: 1, Backoff: 0})}
		first := true
		p.addWorkers(t, 2, func(i int, h http.Handler) http.Handler {
			if first {
				first = false
				return tamperEpoch(false)(i, h)
			}
			return h
		})
		got, err := fs.train(t, p.coord, context.Background())
		if err != nil {
			t.Fatalf("Train with one tampered response: %v", err)
		}
		bitsEqual(t, "W after stale rejection", got.W, fs.want.W)
		bitsEqual(t, "WAvg after stale rejection", got.WAvg, fs.want.WAvg)
	})
	t.Run("aborts", func(t *testing.T) {
		fs := newFaultSetup(t)
		p := &pool{coord: dist.NewCoordinator(dist.CoordinatorConfig{Retries: 1, Backoff: 0})}
		p.addWorkers(t, 1, tamperEpoch(true))
		if _, err := fs.train(t, p.coord, context.Background()); err == nil {
			t.Fatal("Train over an always-tampering worker succeeded; want abort")
		}
	})
}

// TestFaultCtxCancelMidRound cancels the run context from inside the
// first epoch request: Train must return ctx.Err() within the round,
// and — driven through the private facade — the accountant must show
// exactly the one reservation made before training, never a second
// spend (reservations are not refunded, and an aborted run must not
// re-reserve).
func TestFaultCtxCancelMidRound(t *testing.T) {
	ds := data.Synthetic(rand.New(rand.NewSource(41)), data.GenConfig{M: 80, D: 8, Classes: 2, Spread: 1})
	f := loss.NewLogistic(1e-2, 0)
	ctx, cancel := context.WithCancel(context.Background())

	p := &pool{coord: dist.NewCoordinator(dist.CoordinatorConfig{Retries: 1, Backoff: 0})}
	p.addWorkers(t, 2, func(_ int, inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == dist.PathEpoch {
				cancel() // the round is in flight — kill the run now
			}
			inner.ServeHTTP(w, r)
		})
	})

	acct := account.MustNew(dp.Budget{Epsilon: 1})
	src := dist.NewStoreSource(dist.TempStore(t, data.FromDense(ds)))
	_, err := core.TrainDistributed(ctx, p.coord, src, f,
		core.WithBudget(dp.Budget{Epsilon: 0.5}),
		core.WithAccountant(acct),
		core.WithPasses(5), core.WithBatch(4),
		core.WithRand(rand.New(rand.NewSource(2))))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	l := acct.Ledger()
	if len(l.Entries) != 1 {
		t.Fatalf("ledger holds %d entries after cancelled run, want exactly the single reservation: %+v", len(l.Entries), l.Entries)
	}
	if l.SpentEpsilon != 0.5 {
		t.Fatalf("spent ε = %v, want the single 0.5 reservation (no double spend, no refund)", l.SpentEpsilon)
	}
	p.requireReleased(t)
}
