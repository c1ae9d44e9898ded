package dist

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"boltondp/internal/store"
)

// updateGolden regenerates the committed wire-protocol fixtures:
//
//	go test ./internal/dist -run Golden -update-golden
//
// Only do this for a deliberate, reviewed protocol change — and bump
// ProtocolVersion when the change is not backward compatible: a silent
// drift inside one version would let a coordinator and a worker
// disagree about the bytes between them.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire fixtures")

// goldenMessages pins one fully-populated exemplar of every wire
// message, byte-for-byte. Vector payloads use dyadic rationals so the
// base64/CRC forms are stable and human-checkable.
func goldenMessages() []struct {
	file string
	msg  any
} {
	wv := encodeVec([]float64{0.5, -1.25, 0, 3.5})
	av := encodeVec([]float64{0.25, 0.25, -0.5, 1})
	return []struct {
		file string
		msg  any
	}{
		{
			file: "shard_request_store.golden.json",
			msg: &shardRequest{
				Version: ProtocolVersion,
				Job:     "train-logistic-1-9f86d081884c7d65",
				Manifest: shardManifest{
					Shard: 1, Lo: 100, Hi: 200,
					Store: storeManifest{
						Path: "/data/train.bolt", Rows: 400, Dim: 4, ChunkRows: 64, Flags: 1,
						Chunks: []store.ChunkRef{
							{Index: 1, Rows: 64, CRC: 0xdeadbeef},
							{Index: 2, Rows: 64, CRC: 0x01020304},
							{Index: 3, Rows: 64, CRC: 0xcafef00d},
						},
					},
				},
				Spec: TrainSpec{
					Loss:    LossSpec{Kind: lossLogistic, Lambda: 0.001, R: 1000},
					Step:    StepSpec{Kind: StepStronglyConvex, Beta: 0.25, Gamma: 0.001},
					Batch:   50,
					Radius:  1000,
					Average: true,
				},
				Seed: 4242424242,
			},
		},
		{
			// A single-shard (P = 1) install: the explicit permutation
			// and the Huber/sqrt spec fields.
			file: "shard_request_perm.golden.json",
			msg: &shardRequest{
				Version: ProtocolVersion,
				Job:     "train-huber-2-00c0ffee00c0ffee",
				Manifest: shardManifest{
					Shard: 0, Lo: 0, Hi: 2,
					Store: storeManifest{
						Path: "/data/small.bolt", Rows: 2, Dim: 4, ChunkRows: 4096,
						Chunks: []store.ChunkRef{{Index: 0, Rows: 2, CRC: 0x0badf00d}},
					},
				},
				Spec: TrainSpec{
					Loss:          LossSpec{Kind: lossHuber, Lambda: 0.0001, H: 0.1, R: 10000},
					Step:          StepSpec{Kind: StepSqrt, Beta: 0.25, M: 100, C: 0.5},
					Batch:         1,
					KernelWorkers: 2,
				},
				Perm: []int{1, 0},
			},
		},
		{
			file: "shard_response.golden.json",
			msg: &shardResponse{
				Version: ProtocolVersion, Job: "train-logistic-1-9f86d081884c7d65",
				Shard: 1, Rows: 100, Dim: 4,
			},
		},
		{
			file: "epoch_request.golden.json",
			msg: &epochRequest{
				Version: ProtocolVersion, Job: "train-logistic-1-9f86d081884c7d65",
				Shard: 1, Epoch: 2, Passes: 1, T0: 200, W: wv,
			},
		},
		{
			file: "epoch_response.golden.json",
			msg: &epochResponse{
				Version: ProtocolVersion, Job: "train-logistic-1-9f86d081884c7d65",
				Shard: 1, Epoch: 2, W: wv, WAvg: &av, Updates: 100, Passes: 1,
			},
		},
		{
			file: "release_request.golden.json",
			msg:  &releaseRequest{Version: ProtocolVersion, Job: "train-logistic-1-9f86d081884c7d65"},
		},
		{
			file: "release_response.golden.json",
			msg:  &releaseResponse{Version: ProtocolVersion, Job: "train-logistic-1-9f86d081884c7d65", Shards: 2},
		},
		{
			file: "health_response.golden.json",
			msg: &healthResponse{
				Version: ProtocolVersion, Status: "ok", Jobs: 1, Shards: 2,
			},
		},
		{
			file: "error_response.golden.json",
			msg:  &errorResponse{Error: "dist: vector checksum mismatch (0000002a != 0000002b)"},
		},
	}
}

// TestGoldenWireMessages pins the encoded form of every wire message
// byte-for-byte against the committed fixtures — the same discipline
// the eval save-format goldens apply to model files.
func TestGoldenWireMessages(t *testing.T) {
	for _, tc := range goldenMessages() {
		golden := filepath.Join("testdata", tc.file)
		got, err := json.MarshalIndent(tc.msg, "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		got = append(got, '\n')
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s", golden)
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-golden)", tc.file, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire encoding drifted from the committed fixture.\ngot:\n%s\nwant:\n%s\n"+
				"The protocol changed — if intentional, rerun with -update-golden and bump "+
				"ProtocolVersion unless the change is backward compatible.", tc.file, got, want)
		}
	}
}

// TestGoldenWireMessagesLoad proves today's decoder still accepts the
// committed fixtures and recovers the exact original message (decoder
// compatibility is independent of encoder stability).
func TestGoldenWireMessagesLoad(t *testing.T) {
	for _, tc := range goldenMessages() {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-golden)", tc.file, err)
		}
		into := reflect.New(reflect.TypeOf(tc.msg).Elem()).Interface()
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Fatalf("%s: decoding committed fixture: %v", tc.file, err)
		}
		if !reflect.DeepEqual(into, tc.msg) {
			t.Errorf("%s: fixture decoded to\n%+v\nwant\n%+v", tc.file, into, tc.msg)
		}
	}
}
