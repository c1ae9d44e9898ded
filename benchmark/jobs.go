package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"boltondp/internal/account"
	"boltondp/internal/baselines"
	"boltondp/internal/core"
	"boltondp/internal/dp"
	"boltondp/internal/engine"
	"boltondp/internal/eval"
	"boltondp/internal/loss"
	"boltondp/internal/serve"
	"boltondp/internal/sgd"
)

// Every workload trains the paper's default: L2-regularised logistic
// loss, λ=1e-3, R=1/λ, ε=1, the strongly convex Algorithm 2.
const lambda = 1e-3

var (
	logistic = loss.NewLogistic(lambda, 0)
	// pureGrant is the budget of every job but the d=10000 ones.
	pureGrant = dp.Budget{Epsilon: 1}
	// wideGrant adds δ=1e-6 at d=10000: pure ε=1 noise has norm about
	// d·Δ₂/ε ≈ 200 there against a model of norm 14, so held-out
	// accuracy sits at chance and guards nothing; the Gaussian
	// mechanism's noise (≈√d·5Δ₂ ≈ 10) leaves it near the noiseless 0.95.
	wideGrant = dp.Budget{Epsilon: 1, Delta: 1e-6}
)

// trainShape is the (k, b) of a job and the budget granted to it.
type trainShape struct {
	passes, batch int
	grant         dp.Budget
}

func (t trainShape) options(seed int64) []core.Option {
	return []core.Option{
		core.WithPasses(t.passes), core.WithBatch(t.batch), core.WithRadius(1 / lambda),
		core.WithRand(rand.New(rand.NewSource(seed))),
	}
}

// jobSeed is the training seed of job j.
func (r *run) jobSeed(j int) int64 { return r.cfg.seed + 1 + int64(j) }

// trainPrivate is one core.TrainCtx run under a fresh accountant
// holding the grant, as dpsgd does it.
func trainPrivate(ctx context.Context, s sgd.Samples, t trainShape, seed int64, extra ...core.Option) (*core.Result, *account.Accountant, error) {
	acct, err := account.New(t.grant)
	if err != nil {
		return nil, nil, err
	}
	opts := append(t.options(seed), core.WithAccountant(acct))
	res, err := core.TrainCtx(ctx, s, logistic, append(opts, extra...)...)
	return res, acct, err
}

// trainNoiseless is the same job without the bolt-on: the paper's
// Fig 5 denominator.
func trainNoiseless(ctx context.Context, s sgd.Samples, t trainShape, seed int64, strategy engine.Strategy, workers int) ([]float64, error) {
	res, err := baselines.Noiseless(s, logistic, baselines.Options{
		Passes: t.passes, Batch: t.batch, Radius: 1 / lambda,
		Strategy: strategy, Workers: workers,
		Rand: rand.New(rand.NewSource(seed)), Ctx: ctx,
	})
	if err != nil {
		return nil, err
	}
	return res.W, nil
}

// publish stamps the accountant's ledger (none for a noiseless twin)
// into the metadata, publishes w into the directory registry at regDir
// and reads the model back the way a fresh dpserve would: through a
// second registry opened over the same directory.
func (r *run) publish(parent, job int, regDir, name string, w []float64, acct *account.Accountant, meta map[string]string) (*serve.Registry, *serve.Model, error) {
	if meta == nil {
		meta = map[string]string{}
	}
	sp := r.tr.begin("account.stamp", parent, job)
	if acct != nil {
		if err := acct.StampMeta(meta); err != nil {
			return nil, nil, err
		}
	}
	r.tr.end(sp)

	sp = r.tr.begin("serve.publish", parent, job)
	reg, err := serve.NewRegistry(regDir)
	if err != nil {
		return nil, nil, err
	}
	if _, err := reg.Publish(name, &eval.Linear{W: w}, meta); err != nil {
		return nil, nil, err
	}
	r.tr.end(sp)

	sp = r.tr.begin("serve.registry_open", parent, job)
	back, err := serve.NewRegistry(regDir)
	if err != nil {
		return nil, nil, err
	}
	r.tr.end(sp)
	m, ok := back.Get(name)
	if !ok {
		return nil, nil, fmt.Errorf("model %q not readable back from %s", name, regDir)
	}
	return back, m, nil
}

// checkLedger is the accounting check on a published private model:
// its ledger must spend exactly the granted budget.
func (r *run) checkLedger(m *serve.Model, want dp.Budget) {
	l, ok, err := account.LedgerFromMeta(m.Meta)
	if err != nil || !ok {
		r.check(false, "model %q: no readable ledger (present=%v err=%v)", m.Name, ok, err)
		return
	}
	sp := l.Spent()
	r.check(sp == want && l.Total() == want, "model %q: ledger spent %v of %v, granted %v", m.Name, sp, l.Total(), want)
}

// checkSensitivity pins Result.Sensitivity to the closed form for the
// strongly convex algorithm over workers shards of m rows (Lemma 8;
// independent of k and b).
func (r *run) checkSensitivity(got float64, m, workers int) {
	p := logistic.Params()
	want := dp.SensitivityShardedStronglyConvex(p.L, p.Gamma, engine.MinShard(m, workers), workers)
	r.check(got == want, "sensitivity %v, closed form %v (m=%d, P=%d)", got, want, m, workers)
}

// sameBits reports whether two weight vectors are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// stopwatch times fn in seconds.
func stopwatch(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// recordPair files one job pair's end-to-end samples.
func (r *run) recordPair(privateS, noiselessS, accuracy float64) {
	r.add("job_s", privateS)
	r.add("private_over_noiseless", privateS/noiselessS)
	r.add("test_accuracy", accuracy)
}
