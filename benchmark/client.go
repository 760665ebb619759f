package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// requestTimeout fails an operation that has not answered in time; a
// failed operation enters no latency figure.
const requestTimeout = 10 * time.Second

// client talks to one gsimd instance over keep-alive loopback TCP.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		http: &http.Client{
			Timeout:   requestTimeout,
			Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one completed exchange; dur covers send → body fully read.
type reply struct {
	start  time.Time
	dur    time.Duration
	status int
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// fail describes why the reply is not a 200, for the failure log.
func (r reply) fail() string {
	if r.err != nil {
		return r.err.Error()
	}
	b := r.body
	if len(b) > 200 {
		b = b[:200]
	}
	return fmt.Sprintf("status %d: %s", r.status, b)
}

// do sends one request. reqID, when set, travels as X-Request-Id so the
// client's span and the server's slow log name the same request.
func (c *client) do(method, path string, body []byte, reqID string) reply {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	r := reply{start: time.Now()}
	resp, err := c.http.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.dur = time.Since(r.start)
	r.status = resp.StatusCode
	return r
}

// Server reply shapes (the fields the harness reads).

type wireMatch struct {
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

type wireStages struct {
	PrepareNS   int64 `json:"prepare_ns"`
	CutNS       int64 `json:"cut_ns"`
	ScanNS      int64 `json:"scan_ns"`
	MergeNS     int64 `json:"merge_ns"`
	PrefilterNS int64 `json:"prefilter_ns"`
	ScoreNS     int64 `json:"score_ns"`
	Pruned      int   `json:"pruned"`
}

type searchReply struct {
	Scanned   int         `json:"scanned"`
	ElapsedNS int64       `json:"elapsed_ns"`
	Matches   []wireMatch `json:"matches"`
	Stages    *wireStages `json:"stages"`
}

type batchReply struct {
	Results []searchReply `json:"results"`
}

type ingestReply struct {
	Stored int   `json:"stored"`
	IDs    []int `json:"ids"`
}

type statsReply struct {
	Database struct {
		Graphs int `json:"graphs"`
	} `json:"database"`
	Cache struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
	} `json:"cache"`
	Server struct {
		Shed uint64 `json:"shed"`
	} `json:"server"`
}

// Request bodies. Query graphs are pre-encoded, so a body is a byte
// concatenation and the harness spends little CPU beside the server.

func searchBody(q []byte, method string, prefilter bool) []byte {
	b := append([]byte(`{"graph":`), q...)
	b = append(b, `,"tau":`...)
	b = strconv.AppendInt(b, queryTau, 10)
	if method != "" {
		b = append(b, `,"method":"`+method+`"`...)
	} else {
		b = append(b, `,"gamma":`...)
		b = strconv.AppendFloat(b, queryGamma, 'g', -1, 64)
	}
	if prefilter {
		b = append(b, `,"prefilter":true`...)
	}
	return append(b, '}')
}

func topkBody(q []byte) []byte {
	b := append([]byte(`{"graph":`), q...)
	b = append(b, `,"k":10,"tau":`...)
	b = strconv.AppendInt(b, queryTau, 10)
	return append(b, '}')
}

func batchBody(qs [][]byte) []byte {
	b := []byte(`{"graphs":[`)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, q...)
	}
	b = append(b, `],"prefilter":true,"tau":`...)
	b = strconv.AppendInt(b, queryTau, 10)
	b = append(b, `,"gamma":`...)
	b = strconv.AppendFloat(b, queryGamma, 'g', -1, 64)
	return append(b, '}')
}

func ingestBody(graphs []wireGraph) ([]byte, error) {
	return json.Marshal(struct {
		Graphs []wireGraph `json:"graphs"`
	}{graphs})
}

func tracePath(path string, traced bool) string {
	if traced {
		return path + "?debug=trace"
	}
	return path
}

func (c *client) stats() (statsReply, error) {
	var st statsReply
	r := c.do(http.MethodGet, "/v1/stats", nil, "")
	if !r.ok() {
		return st, fmt.Errorf("/v1/stats: %s", r.fail())
	}
	return st, json.Unmarshal(r.body, &st)
}
