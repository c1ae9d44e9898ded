// Package dist is the distributed execution tier: a coordinator/worker
// pair that runs the engine's Sharded strategy across processes,
// speaking JSON over HTTP in the same idiom as the serving tier
// (internal/serve) — context-aware requests, strict decoding, graceful
// drain.
//
// The division of labor follows the paper's MapReduce footnote
// composed with the repository's own layers: the coordinator partitions
// a store file into P shard manifests (chunk ranges + CRCs; every
// worker opens the same file itself), assigns them to registered
// workers, and runs the per-epoch loop — each worker advances
// noiseless permutation SGD one pass over its own shard from the
// shared model, ships its O(d) model vector back, the coordinator
// merges by uniform averaging and redistributes. No data row ever
// crosses the wire: per-round traffic is O(P·d) models (the
// dynamic-evaluation discipline: maintain the result under updates,
// don't re-ship the input). When the run ends the coordinator tells
// each worker to release the job, which closes its store readers.
// Privacy stays strictly above this package: internal/core calibrates
// the Sharded sensitivity and adds the noise exactly once to the final
// averaged model, so the distributed executor is as noise-free a black
// box as the in-process engine.
//
// # Parity contract
//
// A coordinator + P-worker run is bit-identical to single-process
// engine.Run with Strategy=Sharded and Workers=P under the same seed,
// including the accountant ledger of a private run (pinned by
// TestDistParitySharded). Three mechanisms carry the contract:
//
//   - Shard layout comes from engine.PlanShards — the same authority
//     the in-process executor partitions by.
//   - Per-shard randomness is a seed drawn from the caller's generator
//     in shard order (exactly the engine's per-worker seeding), and a
//     worker consumes it identically: one permutation per epoch. A
//     worker that picks up a shard mid-run (restart, reassignment)
//     rewinds deterministically by re-seeding and discarding the
//     permutations of the epochs already played. P = 1 delegates like
//     the engine does: the coordinator draws the single permutation
//     from the caller's generator and ships it explicitly, and the
//     worker runs all passes in one call.
//   - Model vectors cross the wire as raw IEEE-754 bits (base64 of the
//     little-endian encoding) with a CRC32, so no decimal formatting
//     sits between the averaged iterates — what the worker computed is
//     what the coordinator averages, bit for bit.
//
// # Robustness
//
// Everything that crosses the wire is validated fail-closed (protocol
// version, shard geometry, chunk CRCs against the manifest, vector
// CRCs and dimensions, epoch/job echoes), in the integrity-first
// tradition of the deductive-database literature: a mismatch is an
// error before any training work, never a silently wrong model. The
// coordinator retries transient worker failures with backoff,
// reassigns shards of dead workers (the rewind above makes that exact),
// and aborts the run — with the accountant's reservation intact and no
// partial average released — when a shard cannot be recovered.
package dist

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"boltondp/internal/store"
)

// ProtocolVersion is the wire-protocol version both sides must agree
// on. Every request carries it; a worker refuses a request from a
// coordinator speaking a different version (and vice versa for
// responses), so version skew surfaces as an explicit error at the
// first exchange — the golden-file tests in golden_test.go pin the
// encoded forms so a drift inside one version is caught in review.
const ProtocolVersion = 2

// Wire paths of the worker's HTTP surface.
const (
	// PathHealthz is the worker liveness/handshake endpoint (GET).
	PathHealthz = "/dist/healthz"
	// pathShard installs a shard assignment on a worker (POST).
	pathShard = "/dist/shard"
	// pathEpoch runs one epoch of an installed shard (POST).
	pathEpoch = "/dist/epoch"
	// pathRelease frees every shard a worker holds for one job (POST).
	pathRelease = "/dist/release"
)

// wireVec is a model vector on the wire: the base64 encoding of the
// little-endian IEEE-754 bits, with an element count and a CRC32 over
// the raw bytes. Encoding the bits — rather than decimal JSON numbers —
// is what makes the parity contract unconditional: no formatting or
// parsing sits between what one side computed and what the other side
// averages.
type wireVec struct {
	N   int    `json:"n"`
	B64 string `json:"b64"`
	CRC uint32 `json:"crc"`
}

// encodeVec packs w into its wire form.
func encodeVec(w []float64) wireVec {
	raw := make([]byte, 8*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return wireVec{
		N:   len(w),
		B64: base64.StdEncoding.EncodeToString(raw),
		CRC: crc32.ChecksumIEEE(raw),
	}
}

// Decode unpacks the vector, failing closed on any inconsistency
// (bad base64, length mismatch, checksum mismatch). The length check
// divides rather than multiplies, so no claimed N — negative, or large
// enough that 8·N wraps — can reach the allocation.
func (v wireVec) Decode() ([]float64, error) {
	raw, err := base64.StdEncoding.DecodeString(v.B64)
	if err != nil {
		return nil, fmt.Errorf("dist: vector payload: %w", err)
	}
	if len(raw)%8 != 0 || len(raw)/8 != v.N {
		return nil, fmt.Errorf("dist: vector payload holds %d bytes, want 8 per element for n=%d", len(raw), v.N)
	}
	if got := crc32.ChecksumIEEE(raw); got != v.CRC {
		return nil, fmt.Errorf("dist: vector checksum mismatch (%08x != %08x)", got, v.CRC)
	}
	out := make([]float64, v.N)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}

// storeManifest references shard data living in a store file the
// worker can open itself (shared filesystem or local copy): the path,
// the geometry the worker must find there, and the CRCs of every chunk
// the shard's row range touches. The worker verifies all of it before
// training — a stale or rewritten file under the same name is an
// error, never silently different data.
type storeManifest struct {
	Path      string           `json:"path"`
	Rows      int              `json:"rows"`
	Dim       int              `json:"dim"`
	ChunkRows int              `json:"chunk_rows"`
	Flags     uint32           `json:"flags,omitempty"`
	Chunks    []store.ChunkRef `json:"chunks"`
}

// shardManifest describes one shard: its index, its global row range,
// and the store file holding its rows. It never carries rows — a
// worker opens the file itself and checks it against the manifest.
type shardManifest struct {
	Shard int           `json:"shard"`
	Lo    int           `json:"lo"`
	Hi    int           `json:"hi"`
	Store storeManifest `json:"store"`
}

// LossSpec is the wire form of a loss function: the struct fields of
// the internal/loss types, copied verbatim so the worker reconstructs
// arithmetic-identical losses (no constructor defaulting on the far
// side).
type LossSpec struct {
	// Kind is "logistic", "huber" or "leastsquares".
	Kind   string  `json:"kind"`
	Lambda float64 `json:"lambda,omitempty"`
	// H is the Huber smoothing width (Huber only).
	H float64 `json:"h,omitempty"`
	// R is the hypothesis-space radius the constants were derived at.
	R float64 `json:"r,omitempty"`
}

// StepSpec is the wire form of a step-size schedule: the resolved
// numeric parameters of the sgd schedule constructors. The coordinator
// resolves defaults (e.g. η = 1/√n at the shard size) before encoding,
// so both sides evaluate the exact same schedule.
type StepSpec struct {
	// Kind is "constant", "decreasing", "sqrt" or "stronglyconvex".
	Kind string  `json:"kind"`
	Eta  float64 `json:"eta,omitempty"`
	Beta float64 `json:"beta,omitempty"`
	// Gamma is the strong-convexity modulus (stronglyconvex only).
	Gamma float64 `json:"gamma,omitempty"`
	// M is the dataset size the schedule is evaluated at — the
	// smallest shard size for sharded runs (decreasing/sqrt only).
	M int `json:"m,omitempty"`
	// C is the m^c offset exponent (decreasing/sqrt only).
	C float64 `json:"c,omitempty"`
}

// TrainSpec carries the SGD parameters shared by every shard of a run.
type TrainSpec struct {
	Loss    LossSpec `json:"loss"`
	Step    StepSpec `json:"step"`
	Batch   int      `json:"batch"`
	Radius  float64  `json:"radius,omitempty"`
	Average bool     `json:"average,omitempty"`
	// KernelWorkers is the intra-batch parallelism degree of the
	// worker-side SGD kernel (sgd.Config.KernelWorkers; 0 or 1 =
	// sequential). The parallel kernel is bit-identical to the
	// sequential one, so the field affects worker CPU use only, never
	// the trained bytes. It is omitempty, so a spec that leaves it
	// unset does not carry it, and a worker that does not know the
	// field fails loudly through its DisallowUnknownFields decoder
	// instead of silently training something different.
	KernelWorkers int `json:"kernelWorkers,omitempty"`
}

// shardRequest installs one shard assignment on a worker. Re-sending
// the same (job, shard) replaces the previous installation — that is
// how a shard moves to a new worker after a failure.
type shardRequest struct {
	Version  int           `json:"version"`
	Job      string        `json:"job"`
	Manifest shardManifest `json:"manifest"`
	Spec     TrainSpec     `json:"spec"`
	// Seed seeds the shard's permutation generator (multi-shard runs):
	// the worker consumes it exactly as an in-process sharded worker
	// consumes its pre-drawn generator — one permutation per epoch.
	Seed int64 `json:"seed"`
	// Perm is the explicit permutation of a single-shard run (P = 1),
	// where the engine delegates to the sequential path and the
	// permutation comes from the caller's own generator. Mutually
	// exclusive with per-epoch reseeding; such shards train all passes
	// in one epoch call.
	Perm []int `json:"perm,omitempty"`
}

// shardResponse acknowledges a validated installation.
type shardResponse struct {
	Version int    `json:"version"`
	Job     string `json:"job"`
	Shard   int    `json:"shard"`
	Rows    int    `json:"rows"`
	Dim     int    `json:"dim"`
}

// epochRequest asks a worker to advance one installed shard: run
// Passes passes of noiseless PSGD from the shared model W, with the
// update counter starting at T0 (the engine's cross-epoch schedule
// continuation).
type epochRequest struct {
	Version int    `json:"version"`
	Job     string `json:"job"`
	Shard   int    `json:"shard"`
	// Epoch is the 0-based merge-epoch number. A worker whose local
	// state is at a different epoch rewinds deterministically before
	// running, so retries and reassignments cannot skew the randomness.
	Epoch  int     `json:"epoch"`
	Passes int     `json:"passes"`
	T0     int     `json:"t0"`
	W      wireVec `json:"w"`
}

// epochResponse returns the shard's post-epoch model. The coordinator
// rejects any response whose echoes (job, shard, epoch) do not match
// the request — a stale or misrouted model never enters an average.
type epochResponse struct {
	Version int     `json:"version"`
	Job     string  `json:"job"`
	Shard   int     `json:"shard"`
	Epoch   int     `json:"epoch"`
	W       wireVec `json:"w"`
	// WAvg is the shard's uniform iterate average (present iff the
	// spec asked for averaging).
	WAvg *wireVec `json:"w_avg,omitempty"`
	// Updates is the number of gradient updates this epoch performed —
	// the coordinator advances the shard's T0 by it.
	Updates int `json:"updates"`
	Passes  int `json:"passes"`
}

// releaseRequest tells a worker a job is over: it frees every shard it
// holds for Job. The coordinator sends it when Train returns — on
// success, failure or cancel. Releasing a job the worker does not hold
// frees nothing and succeeds.
type releaseRequest struct {
	Version int    `json:"version"`
	Job     string `json:"job"`
}

// releaseResponse acknowledges a release with the number of shards
// freed.
type releaseResponse struct {
	Version int    `json:"version"`
	Job     string `json:"job"`
	Shards  int    `json:"shards"`
}

// healthResponse is the worker handshake: protocol version plus a
// liveness summary. The coordinator validates the version at
// registration and on every heartbeat.
type healthResponse struct {
	Version int    `json:"version"`
	Status  string `json:"status"`
	Jobs    int    `json:"jobs"`
	Shards  int    `json:"shards"`
}

// errorResponse is the JSON body of every non-2xx worker reply.
type errorResponse struct {
	Error string `json:"error"`
}

// checkVersion is the shared fail-closed version gate.
func checkVersion(got int) error {
	if got != ProtocolVersion {
		return fmt.Errorf("dist: protocol version %d, want %d (coordinator/worker version skew)", got, ProtocolVersion)
	}
	return nil
}
