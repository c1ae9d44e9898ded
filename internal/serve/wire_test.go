package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// wireSeeds are the fuzz seeds of FuzzScoreRequestDiff: every body
// the tests send, then the corners where a hand-written JSON reader and
// encoding/json are likeliest to part. The bodies of the deleted
// row-object batch form ("rows") stay as seeds of the reject path.
var wireSeeds = []string{
	// server_test.go, /predict
	`{"x":[1,0,0,0]}`, `{"x":[0,0,1,0]}`, `{"idx":[0],"val":[2]}`, `{"idx":[3,0],"val":[1,3]}`,
	`{"idx":[2,2],"val":[1,1]}`, `{"model":"ova","x":[0.2,0.9]}`, `{"model":"ova","idx":[1],"val":[1]}`,
	`{`, `{"vector":[1]}`, `{}`, `{"x":[1,0,0,0],"idx":[0],"val":[1]}`, `{"x":[1,2]}`, `{"idx":[9],"val":[1]}`,
	`{"idx":[-1],"val":[1]}`, `{"idx":[0,1],"val":[1]}`, `{"model":"nope","x":[1,0,0,0]}`, `{"x":[1]}`,
	`{"idx":[1],"val":[1]}{"model":"other"}`, `{"x":[1,0,0,0]} garbage`, "{\"x\":[1,0,0,0]} \n\t\r",
	// server_test.go, /predict/batch
	`{"rows":[{"x":[1,0,0,0]},{"idx":[2],"val":[1]},{"idx":[3,0],"val":[1,3]}]}`,
	`{"indptr":[0,1,2,4],"idx":[0,2,0,3],"val":[1,1,3,1]}`,
	`{"rows":[{"x":[1,0,0,0]}],"indptr":[0,0],"idx":[],"val":[]}`, `{"indptr":[0],"idx":[],"val":[]}`,
	`{"indptr":[0,3],"idx":[0],"val":[1]}`, `{"indptr":[0,2,1,2],"idx":[0,1],"val":[1,1]}`,
	`{"indptr":[0,-1,2],"idx":[0,1],"val":[1,1]}`, `{"indptr":[0,2],"idx":[0,1],"val":[1]}`,
	`{"indptr":[0,1],"idx":[99],"val":[1]}`, `{"rows":[{"vals":[1]}]}`, `{"rows":[]}`,
	`{"rows":[{"x":[1,0,0,0]},{"x":[1]}]}`, `{"rows":[{"idx":[0,3],"val":[1,1]},{"x":[0,1,0,1]}]}`,
	`{"indptr":[0,1,2],"idx":[0,2],"val":[1,1]}`, `{"rows":[{"x":[1,0,0,0]}]}trailing`,
	// top-level values that are not an object
	``, ` `, `null`, ` null `, `nul`, `nullx`, `[]`, `5`, `"x"`, `true`,
	// key matching: case folding, escapes, duplicates
	`{"X":[1,0,0,0]}`, `{"IDX":[0],"Val":[2]}`, `{"MODEL":"ova","x":[1,1]}`, `{"ROWS":[{"X":[1,0,0,0]}]}`,
	`{"x":[1,0,0,0]}`, `{"idx":[0],"val":[1]}`, `{"rowſ":[{"x":[1,0,0,0]}]}`, "{\"rowſ\":[{\"x\":[1,0,0,0]}]}",
	`{"Key":1}`, `{"x":[1,0,0,0],"x":[0,0,1,0]}`, `{"model":"ova","model":null,"x":[1,1]}`,
	`{"model":"ova","MODEL":"lin","x":[1,0,0,0]}`, `{"x":[1],"x":[]}`, `{"x":[1,0,0,0],"x":null}`,
	// null elements read the slot as found
	`{"x":[null,1,null,0]}`, `{"x":[1,2,3,4],"x":[null]}`, `{"x":[5,6,7,8],"x":[1],"x":[null,null,null,null]}`,
	`{"x":[5,6,7,8],"x":[],"x":[null,null,null,null]}`, `{"x":[5,6,7,8],"x":null,"x":[null,null,null,null]}`,
	`{"idx":[1,2],"idx":[null],"val":[1]}`, `{"indptr":[null,1],"idx":[null],"val":[null]}`,
	`{"rows":[null]}`, `{"rows":[{"x":[1,0,0,0]},null]}`, `{"rows":null,"indptr":[0,1],"idx":[0],"val":[1]}`,
	`{"rows":[{"x":[9,9,9,9]},{"x":[null,null,null,null]}]}`,
	// number grammar
	`{"idx":[1.0],"val":[1]}`, `{"idx":[1e2],"val":[1]}`, `{"idx":[12345678901234567890],"val":[1]}`,
	`{"idx":[9223372036854775807],"val":[1]}`, `{"idx":[-9223372036854775808],"val":[1]}`,
	`{"idx":[9223372036854775808],"val":[1]}`, `{"idx":[999999999999999999],"val":[1]}`,
	`{"idx":[-0],"val":[1]}`, `{"idx":[0],"val":[-0]}`, `{"idx":[01],"val":[1]}`, `{"idx":[-],"val":[1]}`,
	`{"x":[1e999,0,0,0]}`, `{"x":[-1e999,0,0,0]}`, `{"x":[1e-999,0,0,0]}`, `{"x":[01,0,0,0]}`, `{"x":[1.,0,0,0]}`,
	`{"x":[-,0,0,0]}`, `{"x":[.5,0,0,0]}`, `{"x":[+1,0,0,0]}`, `{"x":[0x1p-2,0,0,0]}`, `{"x":[NaN,0,0,0]}`,
	`{"x":[Infinity,0,0,0]}`, `{"x":[1_0,0,0,0]}`, `{"x":[1e,0,0,0]}`, `{"x":[1e+,0,0,0]}`, `{"x":[1E-2,2.5e+1,-0.0,0]}`,
	`{"x":[0.1,0.2,0.30000000000000004,1e-7]}`, `{"x":[1 2]}`, `{"x":[1,]}`, `{"x":[,1]}`, `{"x":[1,0,0,0],}`,
	// structure
	`{"x":[1,0,0,0]`, `{"x":[1,0,0,0`, `{"x":[`, `{"x":`, `{"x"`, `{"x`, `{"x":[1,0,0,0]}}`, `{"x":{"a":1}}`,
	`{"x":[[1]]}`, `{"x":["1"]}`, `{"x":[true]}`, `{"x":"1"}`, `{"x":1}`, `{"model":1,"x":[1,0,0,0]}`,
	`{"model":["ova"]}`, `{ "x" : [ 1 , 0 , 0 , 0 ] }`, "\t{\n\"x\":\r[1,0,0,0]}\n",
	"{\"x\":[1,0,0,0]\x00}", "{\"model\":\"a\x01\"}", "\xef\xbb\xbf{\"x\":[1,0,0,0]}",
	`{"rows":[[[[[[[[[[1]]]]]]]]]]}`, `{"rows":[{"a":{"b":[{"c":null}]}}]}`, `{"rows":[{"x":[1,0,0,0]},5,"s",true,false]}`,
	`{"rows":[{"x":[1,0,0,0]},{"a":"\q"},{"x":[1,0,0,0]},{"x":[1,0,0,0]},{"x":[1,0,0,0]},1,2,3,4]}`,
	`{"rows":[1,2,3,4,5,6,7,8,9,{"x":tru}]}`, `{"rows":[{"x":[1,0,0,0]} {"x":[1,0,0,0]}]}`, `{"rows":[{"x":[1,0,0,0],}]}`,
	`{"rows":[{"x":[1e999,0,0,0]}]}`, `{"rows":[{"model":"ova","x":[1,1]}]}`, `{"rows":[{"rows":[]}]}`,
	`{"rows":[` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `]}`,
	`{"rows":[1,2,3,4,5,6,7,8,9,` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `]}`,
	// strings
	"{\"model\":\"ov\xff\",\"x\":[1,1]}", `{"model":"ova","x":[1,1]}`, `{"model":"😀"}`, `{"model":"\ud83d"}`,
	`{"model":"a\"b"}`, `{"model":"a\\"}`, `{"model":"a\`, `{"model":"\u12"}`, `{"model":"\q"}`, `{"model":"<ova>&"}`,
	// the columnar bodies that replaced the tests' "rows" bodies
	`{"indptr":[0,1,2,4],"idx":[0,2,3,0],"val":[1,1,1,3]}`, `{"indptr":[0,1],"idx":[0],"vals":[1]}`,
	`{"indptr":[0,1,2,3],"idx":[0,0,0],"val":[1,1,1]}`, `{"indptr":[0,1,2],"idx":[0,9],"val":[1,1]}`,
	`{"indptr":[0,1],"idx":[0],"val":[1]}{"model":"ova"}`, `{"indptr":[0,2,4],"idx":[0,3,1,3],"val":[1,1,1,1]}`,
	`{"model":"stable","indptr":[0,1],"idx":[0],"val":[1]}`, `{"indptr":[0,1],"idx":[null],"val":[null]}`,
	`{"indptr":[0,2],"idx":[null,null],"val":[null,null]}`, `{"INDPTR":[0,1],"Idx":[0],"VAL":[1]}`,
}

// FuzzScoreRequestDiff holds the codec to encoding/json on any body, on
// both routes: the same accept or reject, the same decoded fields by
// their bits, and through the handlers the same status, the same
// labels and the reply bytes json.Encoder would have written. The
// oracle rejects trailing bytes as the codec does (oracleDecode); that
// is the only rule it did not have at the parent commit.
func FuzzScoreRequestDiff(f *testing.F) {
	for _, body := range wireSeeds {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	reg, _ := testServer(f, Config{})
	// MaxBatch is small so that "too many rows" (413) meets "a later row
	// does not parse" (400) and the order of the two checks shows.
	srv := New(reg, Config{MaxBatch: 8, Workers: 2})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		// Decode alone, into pooled scratch that holds earlier inputs.
		sc := getScratch()
		defer putScratch(sc)
		fields, oracleErr, same := predictFields, error(nil), (func() error)(nil)
		if batch {
			var o batchRequest
			fields, oracleErr = batchFields, oracleDecode(body, &o)
			same = func() error { return sameFields(&sc.req, o.Model, nil, o.Val, o.Idx, o.Indptr) }
		} else {
			var o predictRequest
			oracleErr = oracleDecode(body, &o)
			same = func() error { return sameFields(&sc.req, o.Model, o.X, o.Val, o.Idx, nil) }
		}
		err := sc.req.decode(body, fields)
		if (err == nil) != (oracleErr == nil) {
			t.Fatalf("codec: %v; oracle: %v", err, oracleErr)
		}
		if err == nil {
			if err := same(); err != nil {
				t.Fatal(err)
			}
		}

		// The whole route.
		path, oracle := "/predict", oraclePredict
		if batch {
			path, oracle = "/predict/batch", oracleBatch
		}
		code, labels := oracle(srv, body)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		if w.Code != code {
			t.Fatalf("status %d, oracle %d (%s)", w.Code, code, w.Body)
		}
		if code != http.StatusOK {
			return
		}
		model := "lin"
		if sc.req.model != "" {
			model = sc.req.model
		}
		var reply any = batchResponse{Model: model, Labels: labels}
		if !batch {
			reply = predictResponse{Model: model, Label: labels[0]}
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(reply); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), enc.Bytes()) {
			t.Fatalf("reply %q, oracle %q", w.Body, &enc)
		}
	})
}

// TestReplyBytesMatchEncoder pins the two success replies to what
// json.Encoder wrote for predictResponse and batchResponse: its float
// format, its string escaping (HTML-safe by default), its newline.
func TestReplyBytesMatchEncoder(t *testing.T) {
	labels := []float64{1, -1, 0, 2, 9, 1e21, 1e20, 1e-7, 1e-6, math.Copysign(0, -1), 0.5, -2.5e-9,
		123456789012345678, 1e15, 999999999999999, math.MaxFloat64, math.SmallestNonzeroFloat64}
	names := []string{"lin", "kdd-a", "", "a b", `q"uote`, `back\slash`, "<ova>&", "new\nline", "tab\t", "\b\f\x01\x7f",
		"café", "  ", "bad\xffutf8", "日本"}
	encode := func(v any) []byte {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, name := range names {
		for _, y := range labels {
			got, want := appendPredictReply(nil, name, y), encode(predictResponse{Model: name, Label: y})
			if !bytes.Equal(got, want) {
				t.Errorf("predict reply %q, json.Encoder %q", got, want)
			}
		}
		for _, ys := range [][]float64{labels, labels[:1], {}} {
			got, want := appendBatchReply(nil, name, ys), encode(batchResponse{Model: name, Labels: ys})
			if !bytes.Equal(got, want) {
				t.Errorf("batch reply %q, json.Encoder %q", got, want)
			}
		}
	}

	// Over the wire: one Write, the length declared.
	_, h := testServer(t, Config{})
	w, _ := do(t, h, "POST", "/predict/batch", `{"indptr":[0,1,2],"idx":[0,2],"val":[1,1]}`)
	if want := "{\"model\":\"lin\",\"labels\":[1,-1]}\n"; w.Body.String() != want {
		t.Errorf("batch reply %q, want %q", w.Body, want)
	}
	if got := w.Header().Get("Content-Length"); got != fmt.Sprint(w.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte reply", got, w.Body.Len())
	}
	if got := w.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type %q", got)
	}
}

// isolationBodies builds n distinct batch requests over the 4-feature
// "lin" model (w = [1,1,-1,-1]) with their labels: request k holds
// rows rows of one nonzero each, whose column — and so whose label —
// depends on k and the row. Row 0 always scores −1, so a first slot
// left behind in scratch is one that flips a zero row's +1.
func isolationBodies(n, rows int) (bodies []string, labels [][]float64) {
	for k := 0; k < n; k++ {
		var b strings.Builder
		cols, want := make([]int, rows), make([]float64, rows)
		for i := range cols {
			cols[i], want[i] = (i*7+k*3+i/5)%4, 1
			if i == 0 {
				cols[i] = 2 + k%2
			}
			if cols[i] >= 2 {
				want[i] = -1
			}
		}
		list := func(elem func(i int) string) {
			for i := range cols {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(elem(i))
			}
		}
		b.WriteString(`{"indptr":[0,`)
		list(func(i int) string { return fmt.Sprint(i + 1) })
		b.WriteString(`],"idx":[`)
		list(func(i int) string { return fmt.Sprint(cols[i]) })
		b.WriteString(`],"val":[`)
		list(func(int) string { return fmt.Sprintf("%d.5", k+1) })
		b.WriteString("]}")
		bodies, labels = append(bodies, b.String()), append(labels, want)
	}
	return bodies, labels
}

// TestScratchIsolation: nothing of one request shows in another's
// reply. A 1-row request served from the scratch a 2048-row request
// just used gets the reply the encoding/json oracle, which has no
// scratch, gives it — including where a null element would expose a
// stale slot — and 8 concurrent clients with distinct bodies each get
// their own labels (run under -race).
func TestScratchIsolation(t *testing.T) {
	reg, _ := testServer(t, Config{})
	srv := New(reg, Config{Workers: 2})
	used := srv.Handler()
	big, _ := isolationBodies(2, 2048)
	for _, tc := range []struct {
		batch bool
		body  string
	}{
		{false, `{"idx":[2],"val":[1]}`},
		{false, `{"x":[null,null,null,null],"idx":null}`},
		{false, `{"idx":[null],"val":[null]}`},
		{true, `{"indptr":[null,1],"idx":[null],"val":[null]}`},
		{true, `{"indptr":[0,1],"idx":[3],"val":[2]}`},
		{true, `{"indptr":[0,1],"idx":[null],"val":[null]}`},
		{true, `{"indptr":[0,2],"idx":[null,null],"val":[null,null]}`},
	} {
		for _, b := range big {
			if w, _ := do(t, used, "POST", "/predict/batch", b); w.Code != http.StatusOK {
				t.Fatalf("2048-row batch: status %d: %s", w.Code, w.Body)
			}
		}
		path, oracle := "/predict", oraclePredict
		if tc.batch {
			path, oracle = "/predict/batch", oracleBatch
		}
		code, labels := oracle(srv, []byte(tc.body))
		if code != http.StatusOK || len(labels) != 1 {
			t.Fatalf("%s: oracle status %d, labels %v", tc.body, code, labels)
		}
		want := appendPredictReply(nil, "lin", labels[0])
		if tc.batch {
			want = appendBatchReply(nil, "lin", labels)
		}
		if w, _ := do(t, used, "POST", path, tc.body); w.Code != code || w.Body.String() != string(want) {
			t.Errorf("%s %s after a 2048-row batch: %d %q, want %d %q", path, tc.body, w.Code, w.Body, code, want)
		}
	}

	const clients, rounds = 8, 40
	bodies, labels := isolationBodies(clients, 300)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				w := httptest.NewRecorder()
				used.ServeHTTP(w, httptest.NewRequest("POST", "/predict/batch", strings.NewReader(bodies[k])))
				var out batchResponse
				if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || w.Code != http.StatusOK {
					t.Errorf("client %d: status %d, %v: %s", k, w.Code, err, w.Body)
					return
				}
				if fmt.Sprint(out.Labels) != fmt.Sprint(labels[k]) {
					t.Errorf("client %d round %d: labels differ from its own rows'", k, r)
					return
				}
			}
		}(k)
	}
	wg.Wait()
}

// discard is a ResponseWriter that keeps nothing, so that what
// TestBatchRequestAllocs counts is the server's.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// TestBatchRequestAllocs: a batch request's allocation count does not
// grow with its rows — the decoded arrays, the labels and the reply
// live in pooled scratch, and a scoring worker has one row header, not
// one per row.
func TestBatchRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	h, rows := kddWorkload(t, 2048)
	allocs := func(n int) float64 {
		body := encodeCSRBatches(t, rows[:n], n)[0]
		w := &discard{h: http.Header{}}
		return testing.AllocsPerRun(50, func() {
			clear(w.h)
			h.ServeHTTP(w, httptest.NewRequest("POST", "/predict/batch", bytes.NewReader(body)))
		})
	}
	small, large := allocs(256), allocs(2048)
	t.Logf("%v allocations at 256 rows, %v at 2048", small, large)
	if large > small+2 {
		t.Errorf("allocations grow with the rows: %v at 256, %v at 2048", small, large)
	}
}

// TestTrailingBytesNameTheOffset: the one request the codec refuses
// and json.Decoder took says where the extra bytes start.
func TestTrailingBytesNameTheOffset(t *testing.T) {
	_, h := testServer(t, Config{})
	w, out := do(t, h, "POST", "/predict", `{"x":[1,0,0,0]} {"model":"ova"}`)
	if msg, _ := out["error"].(string); w.Code != http.StatusBadRequest || !strings.Contains(msg, "offset 16") {
		t.Errorf("status %d, error %q: want a 400 naming offset 16", w.Code, msg)
	}
}
