package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"supg/internal/metrics"
	"supg/internal/server"
)

// answer is one completed operation as the client saw it.
type answer struct {
	Err     error
	Latency time.Duration
	Bytes   int
	// Query answers.
	Tau         float64 // NaN when the response's tau is null
	Returned    int
	OracleCalls int
	ProxyCalls  int
	Recovered   bool
	ElapsedMS   float64
	Precision   float64
	Recall      float64
	IDs         int    // ids included in the response
	IDsHash     uint64 // idsHash of the included ids
	Truncated   bool
	// Append answers: the table size after the append.
	Records int
}

// client talks to one in-process server over loopback. Each worker
// goroutine owns its own reusable body buffers.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// buffers are one worker's reusable response buffers.
type buffers struct {
	body bytes.Buffer
	meta []byte
}

// do sends one request and reads the whole body into b.body. The
// returned latency runs from the send to the last response byte.
func (c *client) do(ctx context.Context, method, path, ctype string, body []byte, b *buffers) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", ctype)
	b.body.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	_, err = b.body.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, lat, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, lat, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b.body.Bytes()))
	}
	return resp.StatusCode, lat, nil
}

// queryBody is the JSON request body of a query op.
func queryBody(o op) []byte {
	b, _ := json.Marshal(server.QueryRequest{SQL: o.SQL, IncludeIndices: o.Include, MaxIndices: o.Max}) // plain struct: cannot fail
	return b
}

// query runs one query op and decodes the response. records bounds the
// returned ids.
func (c *client) query(ctx context.Context, body []byte, records int, b *buffers) answer {
	code, lat, err := c.do(ctx, http.MethodPost, "/v1/query", "application/json", body, b)
	a := answer{Latency: lat, Bytes: b.body.Len()}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("query: status %d, want 200", code)
	}
	if err != nil {
		a.Err = err
		return a
	}
	a.Err = decodeQuery(b, records, &a)
	return a
}

var indicesKey = []byte(`"indices":[`)

// decodeQuery parses a query response. The id list is parsed by hand
// straight from the body (checked ascending and in range, then hashed)
// so that multi-megabyte lists cost the client no allocation; the rest
// of the object is decoded as a server.QueryResponse.
func decodeQuery(b *buffers, records int, a *answer) error {
	body := b.body.Bytes()
	meta := body
	if s := bytes.Index(body, indicesKey); s >= 0 {
		e := bytes.IndexByte(body[s:], ']')
		if e < 0 {
			return errors.New("query: unterminated indices")
		}
		e += s
		h, n, err := parseIDs(body[s+len(indicesKey):e], records)
		if err != nil {
			return err
		}
		a.IDs, a.IDsHash = n, h
		// Cut the list and one neighbouring comma out of the object.
		lo, hi := s, e+1
		if hi < len(body) && body[hi] == ',' {
			hi++
		} else if lo > 0 && body[lo-1] == ',' {
			lo--
		}
		b.meta = append(append(b.meta[:0], body[:lo]...), body[hi:]...)
		meta = b.meta
	}
	var r server.QueryResponse
	if err := json.Unmarshal(meta, &r); err != nil {
		return fmt.Errorf("query: decode response: %w", err)
	}
	a.Tau = math.NaN()
	if r.Tau != nil {
		a.Tau = *r.Tau
	}
	a.Returned, a.OracleCalls, a.ProxyCalls = r.Returned, r.OracleCalls, r.ProxyCalls
	a.Recovered, a.ElapsedMS = r.IndexRecovered, r.ElapsedMS
	a.Precision, a.Recall, a.Truncated = r.AchievedPrecision, r.AchievedRecall, r.Truncated
	return nil
}

// parseIDs parses a comma-separated id list, checking that ids ascend
// strictly within [0, records), and returns their hash and count.
func parseIDs(s []byte, records int) (uint64, int, error) {
	h, n, prev := idsHashSeed, 0, -1
	for i := 0; i < len(s); {
		v, j := 0, i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			v = v*10 + int(s[j]-'0')
			j++
		}
		if j == i || (j < len(s) && s[j] != ',') {
			return 0, 0, fmt.Errorf("query: malformed id list at byte %d", i)
		}
		if v <= prev || v >= records {
			return 0, 0, fmt.Errorf("query: id %d out of order or range (previous %d, records %d)", v, prev, records)
		}
		h, prev, n, i = idsHashStep(h, v), v, n+1, j+1
	}
	return h, n, nil
}

// idsHashSeed and idsHashStep hash an id list (FNV-1a over ids).
const idsHashSeed uint64 = 14695981039346656037

func idsHashStep(h uint64, id int) uint64 { return (h ^ uint64(id)) * 1099511628211 }

// appendTable sends one binary append and returns the table size it
// reports.
func (c *client) appendTable(ctx context.Context, body []byte, b *buffers) answer {
	code, lat, err := c.do(ctx, http.MethodPut, "/v1/datasets/"+table+"/append", "application/octet-stream", body, b)
	a := answer{Latency: lat, Bytes: b.body.Len(), Tau: math.NaN()}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("append: status %d, want 200", code)
	}
	if err != nil {
		a.Err = err
		return a
	}
	var r server.AppendResponse
	if err := json.Unmarshal(b.body.Bytes(), &r); err != nil {
		a.Err = fmt.Errorf("append: decode response: %w", err)
		return a
	}
	a.Records = r.Records
	return a
}

// upload PUTs a whole binary table and returns its record count.
func (c *client) upload(ctx context.Context, body []byte) (int, error) {
	var b buffers
	code, _, err := c.do(ctx, http.MethodPut, "/v1/datasets/"+table, "application/octet-stream", body, &b)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("upload: status %d, want 201", code)
	}
	if err != nil {
		return 0, err
	}
	var info server.DatasetInfo
	if err := json.Unmarshal(b.body.Bytes(), &info); err != nil {
		return 0, fmt.Errorf("upload: decode response: %w", err)
	}
	return info.Records, nil
}

// stats reads GET /v1/stats.
func (c *client) stats(ctx context.Context) (metrics.CounterSnapshot, error) {
	var b buffers
	var s metrics.CounterSnapshot
	if _, _, err := c.do(ctx, http.MethodGet, "/v1/stats", "application/json", nil, &b); err != nil {
		return s, err
	}
	if err := json.Unmarshal(b.body.Bytes(), &s); err != nil {
		return s, fmt.Errorf("stats: decode: %w", err)
	}
	return s, nil
}

// tableRecords reads the table's record count from GET /v1/datasets.
func (c *client) tableRecords(ctx context.Context) (int, error) {
	var b buffers
	if _, _, err := c.do(ctx, http.MethodGet, "/v1/datasets", "application/json", nil, &b); err != nil {
		return 0, err
	}
	var infos []server.DatasetInfo
	if err := json.Unmarshal(b.body.Bytes(), &infos); err != nil {
		return 0, fmt.Errorf("datasets: decode: %w", err)
	}
	for _, in := range infos {
		if in.Name == table {
			return in.Records, nil
		}
	}
	return 0, fmt.Errorf("datasets: table %q not listed", table)
}

// fmtTau renders a tau for messages (null when absent).
func fmtTau(t float64) string {
	if math.IsNaN(t) {
		return "null"
	}
	return strconv.FormatFloat(t, 'g', -1, 64)
}
