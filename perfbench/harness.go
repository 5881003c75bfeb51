package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/storage"
)

// instance is one served System: the handler cmd/verdict-server builds
// (shared obs registry, stage histograms on, request logging off) behind
// a loopback listener in this process.
type instance struct {
	base   *storage.Table
	sample *aqp.Sample
	sys    *core.System
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan struct{}
	rec    *recorder // nil for untraced instances
}

// startInstance wires a System over base and sample and serves it. With
// traced set, a recorder wraps the stage histograms and the notify hook;
// the wrapped observers still receive every observation.
func startInstance(base *storage.Table, sample *aqp.Sample, cfg core.Config, traced bool) (*instance, error) {
	reg := obs.NewRegistry()
	stages := obs.NewQueryStages(reg)
	in := &instance{base: base, sample: sample, served: make(chan struct{})}
	cfg.Stages = stages
	if traced {
		in.rec = newRecorder(stages, reg)
		cfg.Stages = in.rec
	}
	in.sys = core.NewSystem(aqp.NewEngine(base, sample, aqp.CachedCost), cfg)
	in.srv = server.New(in.sys, server.Config{
		MaxInFlight: 16,
		QueueWait:   2 * time.Second,
		Metrics:     reg,
	})
	if traced {
		// Installed after server.New, which registers its own fan-out
		// histogram hook; the recorder forwards into that histogram.
		in.sys.SetNotifyHook(in.rec.observeNotify)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	in.url = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: in.srv.Handler()}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return in, nil
}

// close drains the server (standing subscriptions end with "drain"), shuts
// the listener and waits for the serving goroutine to exit.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.srv.Drain(ctx) // a timeout only means Shutdown closes harder
	if err := in.hs.Shutdown(ctx); err != nil {
		_ = in.hs.Close()
	}
	<-in.served
	in.srv.Close()
}

// stats reads GET /stats.
func (in *instance) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := http.Get(in.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// metrics reads GET /metrics into a flat name{labels} → value map.
func (in *instance) metrics() (map[string]float64, error) {
	resp, err := http.Get(in.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	vals, _, err := obs.ParseText(resp.Body)
	return vals, err
}

// Request kinds a client log entry can hold.
const (
	kindQuery   = "query"
	kindStream  = "stream"
	kindAppend  = "append"
	kindRebuild = "rebuild"
)

// call is one client request as the client saw it: when it was sent, when
// its first and last bytes arrived, and what it decoded to.
type call struct {
	kind  string
	sql   string
	entry int // trace index; -1 when the request carries no trace query
	start time.Time
	first time.Time // first stream chunk
	end   time.Time
	ok    bool
	err   string

	query  server.QueryResponse
	chunks []server.StreamChunk
	app    server.AppendResponse
}

func (c *call) latency() time.Duration { return c.end.Sub(c.start) }

// client is one closed-loop caller holding a single keep-alive connection.
type client struct {
	url string
	hc  *http.Client
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: tr}}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// post sends one JSON request and reads the whole body; the call's end
// time is taken when the last byte has arrived, before decoding.
func (c *client) post(cl *call, path string, body []byte) []byte {
	cl.start = time.Now()
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		cl.end = time.Now()
		cl.err = err.Error()
		return nil
	}
	data, err := io.ReadAll(resp.Body)
	cl.end = time.Now()
	resp.Body.Close()
	if err != nil {
		cl.err = err.Error()
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		cl.err = fmt.Sprintf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
		return nil
	}
	return data
}

func (c *client) query(sql string, entry int) *call {
	cl := &call{kind: kindQuery, sql: sql, entry: entry}
	body, _ := json.Marshal(server.QueryRequest{SQL: sql})
	if data := c.post(cl, "/query", body); data != nil {
		cl.decode(data, &cl.query)
	}
	return cl
}

func (c *client) appendRows(body []byte) *call {
	cl := &call{kind: kindAppend, entry: -1}
	if data := c.post(cl, "/append", body); data != nil {
		cl.decode(data, &cl.app)
	}
	return cl
}

func (c *client) rebuild() *call {
	cl := &call{kind: kindRebuild, entry: -1}
	if data := c.post(cl, "/rebuild", []byte("{}")); data != nil {
		var r server.RebuildResponse
		cl.decode(data, &r)
	}
	return cl
}

func (cl *call) decode(data []byte, dst any) {
	if err := json.Unmarshal(data, dst); err != nil {
		cl.err = "undecodable body: " + err.Error()
		return
	}
	cl.ok = true
}

// stream runs one progressive query, timing the first chunk and the end
// of the stream; chunks are decoded after the last byte arrived.
func (c *client) stream(sql string, entry int) *call {
	cl := &call{kind: kindStream, sql: sql, entry: entry}
	body, _ := json.Marshal(server.StreamRequest{SQL: sql})
	cl.start = time.Now()
	resp, err := c.hc.Post(c.url+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		cl.end = time.Now()
		cl.err = err.Error()
		return cl
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		cl.end = time.Now()
		cl.err = fmt.Sprintf("/query/stream: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return cl
	}
	var lines [][]byte
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if len(lines) == 0 {
				cl.first = time.Now()
			}
			lines = append(lines, line)
		}
		if err != nil {
			cl.end = time.Now()
			if !errors.Is(err, io.EOF) {
				cl.err = err.Error()
				return cl
			}
			break
		}
	}
	for _, line := range lines {
		var ch server.StreamChunk
		if err := json.Unmarshal(line, &ch); err != nil {
			cl.err = "undecodable chunk: " + err.Error()
			return cl
		}
		if ch.Error != "" {
			cl.err = "stream error chunk: " + ch.Error
			return cl
		}
		cl.chunks = append(cl.chunks, ch)
	}
	if len(cl.chunks) == 0 || !cl.chunks[len(cl.chunks)-1].Final {
		cl.err = "stream ended without a final chunk"
		return cl
	}
	cl.ok = true
	return cl
}

// push is one /subscribe chunk with its arrival time.
type push struct {
	at    time.Time
	chunk server.StreamChunk
}

// subscriber holds one HTTP /subscribe connection open and timestamps each
// NDJSON chunk the moment its line arrives.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	hc     *http.Client
	lines  []timedLine
	err    error
	ready  chan error
}

type timedLine struct {
	at   time.Time
	data []byte
}

func subscribe(url, sql string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscriber{
		cancel: cancel, done: make(chan struct{}), ready: make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	body, _ := json.Marshal(server.SubscribeRequest{SQL: sql})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/subscribe", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	go s.run(req)
	if err := <-s.ready; err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// run reads chunks until the server ends the stream or stop cancels it.
// The first chunk (the subscription's initial state) signals readiness.
func (s *subscriber) run(req *http.Request) {
	defer close(s.done)
	resp, err := s.hc.Do(req)
	if err != nil {
		s.ready <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.ready <- fmt.Errorf("/subscribe: status %d", resp.StatusCode)
		return
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			s.lines = append(s.lines, timedLine{at: time.Now(), data: line})
			if len(s.lines) == 1 {
				s.ready <- nil
			}
		}
		if err != nil {
			if len(s.lines) == 0 {
				s.ready <- err
			}
			return
		}
	}
}

// stop ends the subscription and waits for the reader to exit; the
// recorded lines are safe to read afterwards.
func (s *subscriber) stop() {
	s.cancel()
	<-s.done
	s.hc.CloseIdleConnections()
}

// wait lets the server end the stream (a drain) for up to timeout, then
// stops it.
func (s *subscriber) wait(timeout time.Duration) {
	select {
	case <-s.done:
	case <-time.After(timeout):
	}
	s.stop()
}

// pushes decodes the recorded chunks; a chunk that does not decode is an
// error the caller counts as a failure.
func (s *subscriber) pushes() ([]push, error) {
	var out []push
	for _, l := range s.lines {
		var ch server.StreamChunk
		if err := json.Unmarshal(l.data, &ch); err != nil {
			return out, fmt.Errorf("undecodable push: %w", err)
		}
		if ch.StopReason != "" {
			continue // the terminal "drain" chunk carries no answer
		}
		out = append(out, push{at: l.at, chunk: ch})
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
