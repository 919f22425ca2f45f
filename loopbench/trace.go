package main

// Tracing for the traced run. Spans are recorded from the benchmark's own
// code around its calls into each layer: the op (bench), each client method
// call (client), and each HTTP exchange the client makes (http, recorded by
// a RoundTripper that also counts wire bytes). The server's share of an
// exchange comes from deltas of zmeshd's own latency and stage timers,
// scraped before and after every traced op. Spans stay in memory and are
// written out as JSON when the run ends. A nil *tracer records nothing, so
// the untraced run executes the same code with no tracing in its path.

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // http spans: request+response body bytes
}

type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	op     int
	opID   int // open op span
	callID int // open client-call span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) open(parent int, name, layer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Layer: layer, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) close(id int, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
	t.spans[id-1].Bytes += bytes
}

// startOp opens the root span of op k.
func (t *tracer) startOp(k int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = k
	t.mu.Unlock()
	t.opID = t.open(0, name, "bench")
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.close(t.opID, 0)
	t.opID = 0
}

// call runs fn inside a client span.
func (t *tracer) call(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := t.open(t.opID, name, "client")
	t.mu.Lock()
	t.callID = id
	t.mu.Unlock()
	err := fn()
	t.close(id, 0)
	t.mu.Lock()
	t.callID = 0
	t.mu.Unlock()
	return err
}

// transport wraps rt so each exchange becomes an http span under the open
// client span, ending when the response body has been read and closed.
func (t *tracer) transport(rt http.RoundTripper) http.RoundTripper {
	return roundTripper(func(req *http.Request) (*http.Response, error) {
		t.mu.Lock()
		parent := t.callID
		t.mu.Unlock()
		id := t.open(parent, req.Method+" "+req.URL.Path, "http")
		var reqBytes countingBody
		if req.Body != nil {
			reqBytes.rc = req.Body
			req.Body = &reqBytes
		}
		resp, err := rt.RoundTrip(req)
		if err != nil {
			t.close(id, reqBytes.load())
			return nil, err
		}
		resp.Body = &spanBody{countingBody: countingBody{rc: resp.Body}, done: func(n int64) { t.close(id, n+reqBytes.load()) }}
		return resp, nil
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingBody counts the bytes read through it; request bodies are read
// by the transport's own goroutine, hence the lock.
type countingBody struct {
	rc io.ReadCloser
	mu sync.Mutex
	n  int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.mu.Lock()
	b.n += int64(n)
	b.mu.Unlock()
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

func (b *countingBody) load() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// spanBody closes its span once, on Close.
type spanBody struct {
	countingBody
	once sync.Once
	done func(n int64)
}

func (b *spanBody) Close() error {
	err := b.countingBody.Close()
	b.once.Do(func() { b.done(b.load()) })
	return err
}

// opTimes sums one op's spans by layer.
type opTimes struct {
	op, client, http time.Duration
	wireBytes        int64
	requests         int
}

func (t *tracer) times() map[int]*opTimes {
	out := map[int]*opTimes{}
	for _, s := range t.spans {
		ot := out[s.Op]
		if ot == nil {
			ot = &opTimes{}
			out[s.Op] = ot
		}
		d := time.Duration(s.End - s.Start)
		switch s.Layer {
		case "bench":
			ot.op += d
		case "client":
			ot.client += d
		case "http":
			ot.http += d
			ot.wireBytes += s.Bytes
			ot.requests++
		}
	}
	return out
}

func (t *tracer) writeJSON(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, b)
}
