package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// checkEvery is the byte-check sampling period: every checkEvery-th request
// (plus every fresh warm-mix write) is compared against an in-process run.
const checkEvery = 16

// subWindows splits the timed window for the run-to-run spread estimate.
const subWindows = 4

// obs is one request as the client saw it.
type obs struct {
	doneAt time.Time
	latMS  float64 // send to last byte
	ttflMS float64 // send to first NDJSON line (streams) or first body byte
	bytes  int64
	tasks  int
	err    string // non-empty on failure
}

// sampled is a response kept for the byte check after the window.
type sampled struct {
	index   int // request index in the workload's stream
	body    []byte
	stream  bool
	sum     [sha256.Size]byte   // whole body (non-stream)
	lines   [][sha256.Size]byte // one per result line (stream)
	count   int                 // the done line's count (stream)
	done    [sha256.Size]byte   // the whole done line (stream)
	failure string              // why the check failed; empty while it holds
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc  *http.Client
	br  *bufio.Reader
	sha hash.Hash
}

func newClient(hc *http.Client) *client {
	return &client{hc: hc, br: bufio.NewReaderSize(nil, 256<<10), sha: sha256.New()}
}

// newHTTPClient allows as many keep-alive connections as there are callers.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

var doneLinePrefix = []byte(`{"done":`)

// do sends one request and reads the whole response, checking its framing:
// status 200, a newline-terminated body, and for streams a done line whose
// count matches the result lines and no error line. keep, when non-nil,
// receives the hashes for the byte check.
func (c *client) do(url string, req request, stream bool, keep *sampled) obs {
	start := time.Now()
	o := obs{tasks: req.tasks}
	fail := func(format string, a ...any) obs {
		o.err = fmt.Sprintf(format, a...)
		o.doneAt = time.Now()
		return o
	}
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return fail("post: %v", err)
	}
	defer resp.Body.Close()
	c.br.Reset(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(c.br, 512))
		return fail("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if !stream {
		if _, err := c.br.Peek(1); err != nil {
			return fail("empty body: %v", err)
		}
		o.ttflMS = ms(time.Since(start))
		var w io.Writer = io.Discard
		if keep != nil {
			c.sha.Reset()
			w = c.sha
		}
		last := &lastByte{w: w}
		n, err := c.br.WriteTo(last)
		if err != nil {
			return fail("read body: %v", err)
		}
		o.bytes = n
		if last.b != '\n' {
			return fail("body not newline-terminated")
		}
		if keep != nil {
			c.sha.Sum(keep.sum[:0])
		}
	} else {
		results, done := 0, false
		for {
			line, err := c.br.ReadSlice('\n')
			if errors.Is(err, io.EOF) && len(line) == 0 {
				break
			}
			if err != nil {
				return fail("read stream: %v", err)
			}
			if o.bytes == 0 {
				o.ttflMS = ms(time.Since(start))
			}
			o.bytes += int64(len(line))
			if done {
				return fail("data after the done line")
			}
			if bytes.HasPrefix(line, doneLinePrefix) {
				var d struct {
					Done  bool `json:"done"`
					Count int  `json:"count"`
				}
				if err := json.Unmarshal(line, &d); err != nil || !d.Done {
					return fail("stream error line: %s", bytes.TrimSpace(line))
				}
				if d.Count != results {
					return fail("done count %d after %d lines", d.Count, results)
				}
				done = true
				if keep != nil {
					keep.count = d.Count
					keep.done = sha256.Sum256(line)
				}
				continue
			}
			results++
			if keep != nil {
				keep.lines = append(keep.lines, sha256.Sum256(line))
			}
		}
		if !done {
			return fail("stream truncated after %d lines", results)
		}
	}
	o.doneAt = time.Now()
	o.latMS = ms(o.doneAt.Sub(start))
	return o
}

type lastByte struct {
	w io.Writer
	b byte
}

func (l *lastByte) Write(p []byte) (int, error) {
	if len(p) > 0 {
		l.b = p[len(p)-1]
	}
	return l.w.Write(p)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// window is one timed closed-loop run against a fleet.
type window struct {
	obs      []obs
	checks   []*sampled
	marks    []fleetSample // start, sub-window boundaries, end
	before   map[string]float64
	after    map[string]float64
	duration time.Duration
}

// runWindow drives the fleet for d with w.clients closed-loop callers, each
// sending its next request as soon as the previous reply has been read.
// Request indexes are handed out in order, so which caller sends a request
// never changes what it is. The first caller also samples the processes at
// each sub-window boundary.
func runWindow(f fleet, w workload, next func(int) request, d time.Duration) (*window, error) {
	url := f[0].url + "/v2/query"
	if w.stream {
		url += "/stream"
	}
	hc := newHTTPClient(w.clients)
	defer hc.CloseIdleConnections()

	win := &window{}
	var err error
	if win.before, err = f.scrape(); err != nil {
		return nil, err
	}
	first, err := f.sample()
	if err != nil {
		return nil, err
	}
	win.marks = append(win.marks, first)
	start := first.at
	deadline := start.Add(d)

	var (
		nextIdx   atomic.Int64
		mu        sync.Mutex
		sampleErr error // set by the lead caller, read after Wait
	)
	loop := func(c *client, lead bool) {
		boundary := 1
		for time.Now().Before(deadline) {
			i := int(nextIdx.Add(1) - 1)
			req := next(i)
			var keep *sampled
			if i%checkEvery == 0 || req.fresh {
				keep = &sampled{index: i, body: req.body, stream: w.stream}
			}
			o := c.do(url, req, w.stream, keep)
			mu.Lock()
			win.obs = append(win.obs, o)
			if keep != nil && o.err == "" {
				win.checks = append(win.checks, keep)
			}
			mu.Unlock()
			if lead && boundary < subWindows && time.Since(start) >= time.Duration(boundary)*d/subWindows {
				s, err := f.sample()
				if err != nil {
					sampleErr = err
					return
				}
				win.marks = append(win.marks, s) // only the lead caller touches marks
				boundary++
			}
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(newClient(hc), false)
		}()
	}
	loop(newClient(hc), true)
	wg.Wait()
	if sampleErr != nil {
		return nil, sampleErr
	}
	last, err := f.sample()
	if err != nil {
		return nil, err
	}
	win.marks = append(win.marks, last)
	win.duration = last.at.Sub(start)
	if win.after, err = f.scrape(); err != nil {
		return nil, err
	}
	return win, nil
}
