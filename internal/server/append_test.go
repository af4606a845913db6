package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"supg/internal/dataset"
	"supg/internal/randx"
)

func tauString(tau *float64) string {
	if tau == nil {
		return "null"
	}
	return fmt.Sprintf("%x", *tau)
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func putBody(t *testing.T, srv *Server, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func csvBytes(t *testing.T, d *dataset.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func queryOnce(t *testing.T, srv *Server, sql string) QueryResponse {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{SQL: sql, IncludeIndices: true})
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body.String())
	}
	var resp QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAppendEndpoint covers the dataset-append API: upload, append via
// CSV and binary, summaries updated, incremental proxy cost, and
// byte-identical answers versus a server given the combined upload.
func TestAppendEndpoint(t *testing.T) {
	base := dataset.Beta(randx.New(21), 6000, 0.01, 2)
	extra := dataset.Beta(randx.New(22), 2000, 0.01, 2)
	sql := `SELECT * FROM t WHERE t_oracle(x) ORACLE LIMIT 300 USING t_proxy(x) RECALL TARGET 90% WITH PROBABILITY 95%`

	grown := NewWithOptions(9, Options{SegmentSize: 512})
	defer shutdownServer(t, grown)
	if w := putBody(t, grown, "/v1/datasets/t", "", csvBytes(t, base)); w.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
	// Warm the index so the append exercises the incremental path.
	first := queryOnce(t, grown, sql)
	if first.ProxyCalls != base.Len() {
		t.Fatalf("warmup proxy calls = %d, want %d", first.ProxyCalls, base.Len())
	}

	w := putBody(t, grown, "/v1/datasets/t/append", "", csvBytes(t, extra))
	if w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}
	var ar AppendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Appended != extra.Len() || ar.Records != base.Len()+extra.Len() {
		t.Fatalf("append response %+v, want appended=%d records=%d", ar, extra.Len(), base.Len()+extra.Len())
	}

	after := queryOnce(t, grown, sql)
	if after.ProxyCalls != extra.Len() {
		t.Fatalf("post-append proxy calls = %d, want only the %d appended records", after.ProxyCalls, extra.Len())
	}

	// A fresh server uploaded with the combined dataset must agree
	// byte for byte (same seed, same SQL, same sampling stream).
	fresh := NewWithOptions(9, Options{SegmentSize: 512})
	defer shutdownServer(t, fresh)
	if w := putBody(t, fresh, "/v1/datasets/t", "", csvBytes(t, base.Append(extra))); w.Code != http.StatusCreated {
		t.Fatalf("combined upload: %d %s", w.Code, w.Body.String())
	}
	want := queryOnce(t, fresh, sql)
	// ProxyCalls legitimately differ (incremental vs full scan); the
	// answer itself must not.
	if tauString(after.Tau) != tauString(want.Tau) || after.Returned != want.Returned ||
		after.OracleCalls != want.OracleCalls || len(after.Indices) != len(want.Indices) {
		t.Fatalf("append path answer differs from combined upload:\n%+v\nvs\n%+v", after, want)
	}
	for i := range want.Indices {
		if after.Indices[i] != want.Indices[i] {
			t.Fatalf("record %d differs: %d vs %d", i, after.Indices[i], want.Indices[i])
		}
	}

	// The dataset listing reflects the combined summary.
	req := httptest.NewRequest(http.MethodGet, "/v1/datasets", nil)
	lw := httptest.NewRecorder()
	grown.ServeHTTP(lw, req)
	var infos []DatasetInfo
	if err := json.Unmarshal(lw.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Records != base.Len()+extra.Len() {
		t.Fatalf("listing %+v, want one %d-record dataset", infos, base.Len()+extra.Len())
	}
}

// TestAppendEndpointBinary appends in the binary interchange format.
func TestAppendEndpointBinary(t *testing.T) {
	base := dataset.Beta(randx.New(31), 1000, 0.5, 1)
	extra := dataset.Beta(randx.New(32), 400, 0.5, 1)
	srv := New(3)
	defer shutdownServer(t, srv)

	var baseBuf, extraBuf bytes.Buffer
	if err := dataset.WriteBinary(&baseBuf, base); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteBinary(&extraBuf, extra); err != nil {
		t.Fatal(err)
	}
	if w := putBody(t, srv, "/v1/datasets/b", "application/octet-stream", baseBuf.Bytes()); w.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", w.Code, w.Body.String())
	}
	w := putBody(t, srv, "/v1/datasets/b/append", "application/octet-stream", extraBuf.Bytes())
	if w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}
	var ar AppendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Records != base.Len()+extra.Len() {
		t.Fatalf("records = %d, want %d", ar.Records, base.Len()+extra.Len())
	}
}

// TestAppendEndpointErrors: unknown datasets 404, malformed bodies 400.
func TestAppendEndpointErrors(t *testing.T) {
	srv := New(1)
	defer shutdownServer(t, srv)
	if w := putBody(t, srv, "/v1/datasets/nope/append", "", csvBytes(t, dataset.Beta(randx.New(1), 10, 0.5, 1))); w.Code != http.StatusNotFound {
		t.Fatalf("append to unknown dataset: %d, want 404", w.Code)
	}
	srv.RegisterDataset("d", dataset.Beta(randx.New(2), 100, 0.5, 1))
	if w := putBody(t, srv, "/v1/datasets/d/append", "", []byte("not,a,valid\ncsv")); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed append body: %d, want 400", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/datasets/d/append", strings.NewReader(""))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET append: %d, want 405", w.Code)
	}
}

// TestPanickingProxyAfterAppendAnswers400: a proxy UDF that panics on
// appended records fails the query with 400 instead of killing the
// process, and keeps failing (a cached permanent build error) until the
// proxy is re-registered.
func TestPanickingProxyAfterAppendAnswers400(t *testing.T) {
	base := dataset.Beta(randx.New(23), 3000, 0.01, 2)
	extra := dataset.Beta(randx.New(24), 500, 0.01, 2)
	sql := `SELECT * FROM t WHERE t_oracle(x) ORACLE LIMIT 300 USING p(x) RECALL TARGET 90% WITH PROBABILITY 95%`

	s := New(3)
	defer shutdownServer(t, s)
	s.RegisterDataset("t", base)
	s.RegisterProxy("p", func(i int) float64 {
		if i >= base.Len() {
			panic("no score")
		}
		return base.Score(i)
	})
	queryOnce(t, s, sql)
	if w := putBody(t, s, "/v1/datasets/t/append", "", csvBytes(t, extra)); w.Code != http.StatusOK {
		t.Fatalf("append: %d %s", w.Code, w.Body.String())
	}
	body, _ := json.Marshal(QueryRequest{SQL: sql})
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("query %d over the panicking proxy: %d %s, want 400", i+1, w.Code, w.Body.String())
		}
	}

	s.RegisterProxy("p", func(i int) float64 { return float64(i%100) / 100 })
	if res := queryOnce(t, s, sql); res.ProxyCalls != base.Len()+extra.Len() {
		t.Fatalf("after re-registration: proxy_calls %d, want a full %d-record build", res.ProxyCalls, base.Len()+extra.Len())
	}
}
