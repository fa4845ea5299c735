package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"dense802154/internal/query"
)

// expected is the in-process answer to one request body.
type expected struct {
	sum   [sha256.Size]byte
	lines [][sha256.Size]byte
	err   error
}

// expect runs body through query.Run and encodes the result: the whole
// ResultSet for /v2/query, one TaskResult line per result for the stream.
func expect(body []byte) expected {
	var q query.Query
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return expected{err: err}
	}
	rs, err := query.Run(context.Background(), q)
	if err != nil {
		return expected{err: err}
	}
	enc, err := rs.Encode()
	if err != nil {
		return expected{err: err}
	}
	e := expected{sum: sha256.Sum256(enc)}
	for _, tr := range rs.Results {
		line, err := query.EncodeTaskResult(tr)
		if err != nil {
			return expected{err: err}
		}
		e.lines = append(e.lines, sha256.Sum256(line))
	}
	return e
}

// verify compares every sampled response against the in-process answer,
// computing each distinct body once on two goroutines, and records each
// mismatch as the sample's failure.
func verify(checks []*sampled) {
	index := map[string]int{}
	var distinct [][]byte
	for _, c := range checks {
		if _, ok := index[string(c.body)]; !ok {
			index[string(c.body)] = len(distinct)
			distinct = append(distinct, c.body)
		}
	}
	results := make([]expected, len(distinct))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(distinct); i += 2 {
				results[i] = expect(distinct[i])
			}
		}()
	}
	wg.Wait()
	for _, c := range checks {
		c.failure = mismatch(c, &results[index[string(c.body)]])
	}
}

// failures counts the failed byte checks and describes the first one.
func failures(checks []*sampled) (int, string) {
	n, first := 0, ""
	for _, c := range checks {
		if c.failure == "" {
			continue
		}
		n++
		if first == "" {
			first = fmt.Sprintf("%s (request %s)", c.failure, c.body)
		}
	}
	return n, first
}

func mismatch(c *sampled, e *expected) string {
	switch {
	case e.err != nil:
		return "in-process run failed: " + e.err.Error()
	case !c.stream && c.sum != e.sum:
		return "body differs from the in-process bytes"
	case c.stream && c.count != len(e.lines):
		return fmt.Sprintf("done count %d, in-process %d results", c.count, len(e.lines))
	case c.stream && len(c.lines) != len(e.lines):
		return fmt.Sprintf("%d stream lines, in-process %d", len(c.lines), len(e.lines))
	}
	for i := range c.lines {
		if c.lines[i] != e.lines[i] {
			return fmt.Sprintf("stream line %d differs from the in-process bytes", i)
		}
	}
	return ""
}

// digest hashes a whole response the way the client keeps a sampled one: the
// body, or each result line and the done line of a stream.
func digest(out []byte, stream bool) sampled {
	d := sampled{stream: stream}
	if !stream {
		d.sum = sha256.Sum256(out)
		return d
	}
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		switch {
		case len(line) == 0:
		case bytes.HasPrefix(line, doneLinePrefix):
			var done struct {
				Count int `json:"count"`
			}
			if json.Unmarshal(line, &done) != nil {
				done.Count = -1
			}
			d.count = done.Count
			d.done = sha256.Sum256(line)
		default:
			d.lines = append(d.lines, sha256.Sum256(line))
		}
	}
	return d
}

// sameDigest reports whether two digests of one request's response agree.
func sameDigest(a, b *sampled) bool {
	return a.sum == b.sum && a.count == b.count && a.done == b.done && slices.Equal(a.lines, b.lines)
}
