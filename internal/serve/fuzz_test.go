package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sring/internal/netlist"
	"sring/internal/serve"
)

// FuzzSynthesizeRequest drives arbitrary POST /synthesize bodies through the
// real handler. The request context is cancelled up front, so a body that
// passes validation stops before synthesis (499) instead of running it.
// Properties: the handler never panics, answers 2xx or 4xx, and every
// non-2xx body is a JSON object with a non-empty "error".
//
// The seed corpus (the badRequests table, an inline netlist and a generate
// request) runs as part of go test; explore further with
//
//	go test -run - -fuzz FuzzSynthesizeRequest -parallel 1 ./internal/serve/
func FuzzSynthesizeRequest(f *testing.F) {
	for _, tc := range badRequests {
		f.Add(tc.body)
	}
	var nl bytes.Buffer
	if err := netlist.Encode(&nl, netlist.MWD()); err != nil {
		f.Fatal(err)
	}
	f.Add(`{"netlist":` + nl.String() + `,"method":"SRing","options":{"parallelism":1}}`)
	f.Add(`{"generate":{"kind":"clustered","clusters":2,"cluster_size":3,"inter_flows":1,"seed":1},"method":"SRing","stream":true}`)

	h := (&serve.Server{}).Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/synthesize", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if class := w.Code / 100; class != 2 && class != 4 {
			t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body)
		}
		if w.Code/100 == 2 {
			return
		}
		var e map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("status %d: error body is not a JSON object: %v (%q)", w.Code, err, w.Body)
		}
		if e["error"] == "" {
			t.Fatalf("status %d: error body %q has no error message", w.Code, w.Body)
		}
	})
}
