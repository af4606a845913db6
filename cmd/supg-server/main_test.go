package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
	"supg/internal/server"
)

// fusedVariantsSQL fuses both preload proxy variants of the beta table.
const fusedVariantsSQL = `SELECT * FROM beta WHERE beta_oracle(x) = true ORACLE LIMIT 500 ` +
	`USING FUSE(mean, beta_proxy_soft(x), beta_proxy_sharp(x)) RECALL TARGET 90% WITH PROBABILITY 95%`

func do(t *testing.T, srv *server.Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w
}

func fusedVariantsQuery(t *testing.T, srv *server.Server) server.QueryResponse {
	t.Helper()
	body, _ := json.Marshal(server.QueryRequest{SQL: fusedVariantsSQL})
	w := do(t, srv, http.MethodPost, "/v1/query", body)
	if w.Code != http.StatusOK {
		t.Fatalf("fused query: %d %s", w.Code, w.Body.String())
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestProxyVariantsFollowAppends: the preload proxy variants score
// records appended over HTTP, so a FUSE query over them keeps working
// after an append and extends its index by the appended records only.
func TestProxyVariantsFollowAppends(t *testing.T) {
	srv := server.New(1)
	defer srv.Shutdown(context.Background())
	if err := preloadDataset(srv, "beta", 5000, 1); err != nil {
		t.Fatal(err)
	}
	registerProxyVariants(srv, "beta")

	if cold := fusedVariantsQuery(t, srv); cold.ProxyCalls != 2*5000 {
		t.Fatalf("cold fused query: proxy_calls %d, want %d", cold.ProxyCalls, 2*5000)
	}

	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, dataset.Beta(randx.New(2), 1000, 0.01, 2)); err != nil {
		t.Fatal(err)
	}
	if w := do(t, srv, http.MethodPut, "/v1/datasets/beta/append", csv.Bytes()); w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}

	if grown := fusedVariantsQuery(t, srv); grown.ProxyCalls != 2*1000 {
		t.Fatalf("fused query after append: proxy_calls %d, want %d", grown.ProxyCalls, 2*1000)
	}
}
