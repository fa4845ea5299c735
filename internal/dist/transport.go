package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"dense802154/internal/query"
	"dense802154/internal/wire"
)

// LineStream is one shard's response stream: Next returns TaskLines in
// range order and io.EOF after the terminal line (or a transport error if
// the stream dies mid-shard). Close releases the underlying connection.
type LineStream interface {
	Next() (TaskLine, error)
	Close() error
}

// Transport carries shards to workers. It is the coordinator's only view of
// the fleet, which is what makes fault injection complete: wrapping a
// Transport can simulate every failure mode a real network exhibits.
type Transport interface {
	// Send posts req to the worker's /v2/tasks endpoint and returns the
	// line stream. A non-nil error means the shard never started there.
	Send(ctx context.Context, worker string, req TaskRequest) (LineStream, error)
	// Ready probes the worker's readiness endpoint (admission/eviction).
	Ready(ctx context.Context, worker string) error
}

// HTTPTransport is the production Transport: JSON over HTTP against the
// /v2/tasks and /readyz routes of each worker's base URL. Each shard's
// response is read by NewLineStream, sized to the shard's range and sharing
// the labels of the plan the coordinator put in the Send context.
type HTTPTransport struct {
	// Client issues the requests (nil ⇒ the shared http.DefaultClient, which
	// has no global timeout; per-shard deadlines come from the Send context).
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// Send implements Transport. The body is req's AppendJSON bytes; under a
// coordinator's Send context the query's bytes, encoded once per query, are
// copied in and only the range is written per shard.
func (t *HTTPTransport) Send(ctx context.Context, worker string, req TaskRequest) (LineStream, error) {
	sc := shardContextOf(ctx)
	var body []byte
	if sc.queryPrefix != nil {
		body = req.appendRange(append(make([]byte, 0, len(sc.queryPrefix)+64), sc.queryPrefix...))
	} else {
		body = req.AppendJSON(nil)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v2/tasks", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := t.client().Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("dist: worker %s answered %d: %s", worker, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return NewLineStream(resp.Body, sc.labels, req.To-req.From), nil
}

// Ready implements Transport.
func (t *HTTPTransport) Ready(ctx context.Context, worker string) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := t.client().Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: worker %s not ready (%d)", worker, resp.StatusCode)
	}
	return nil
}

// maxLineBytes bounds one /v2/tasks line. The largest real task lines
// (lifetime curves of the biggest fleets) are well under a megabyte; a
// longer line ends the stream with errLineTooLong instead of buffering
// without bound.
var maxLineBytes = 32 << 20

var errLineTooLong = errors.New("dist: task line exceeds the line size limit")

// lineStream reads a /v2/tasks NDJSON body: one '\n'-delimited line at a
// time out of a reused bufio buffer (lines longer than the buffer are
// reassembled in a reused scratch slice), each decoded without reflection by
// decodeLine. Task results land in a slab of TaskResults the stream owns,
// their metrics payloads in a MetricsWire slab, and a label equal to the
// plan's shares the plan's string, so a conforming grid line allocates
// nothing of its own. Results stay valid after later calls. Blank lines are
// skipped, as json.Decoder skips whitespace between values. A body that
// ends inside a line yields io.ErrUnexpectedEOF: the shard died mid-line,
// and only its complete lines count as delivered.
type lineStream struct {
	body  io.ReadCloser
	r     *bufio.Reader
	long  []byte
	scan  wire.Scanner
	dec   query.TaskDecoder
	tr    query.TaskResult // decodeLine's target, copied into slots
	slots []query.TaskResult
	tasks int
}

// NewLineStream returns the LineStream that reads /v2/tasks NDJSON from
// body; HTTPTransport streams every shard through it. labels are the plan's
// task labels, indexed by plan index (nil ⇒ every label is its own string),
// and tasks is how many task lines the shard carries, which sizes the
// result slabs.
func NewLineStream(body io.ReadCloser, labels []string, tasks int) LineStream {
	tasks = max(tasks, 1)
	return &lineStream{
		body:  body,
		r:     bufio.NewReader(body),
		dec:   query.TaskDecoder{Labels: labels, Slab: tasks},
		tasks: tasks,
	}
}

func (s *lineStream) Next() (TaskLine, error) {
	var l TaskLine
	b, err := s.line()
	switch {
	case err == nil:
		err = decodeLine(b, &s.scan, &l, &s.tr, &s.dec)
	case errors.Is(err, io.ErrUnexpectedEOF) && len(b) > 0 && decodeLine(b, &s.scan, &l, &s.tr, &s.dec) == nil:
		err = nil // a complete last line missing only its newline
	}
	if err != nil {
		return TaskLine{}, err
	}
	if l.Result == &s.tr {
		if len(s.slots) == 0 {
			s.slots = make([]query.TaskResult, s.tasks)
		}
		s.slots[0] = s.tr
		l.Result = &s.slots[0]
		s.slots = s.slots[1:]
	}
	return l, nil
}

// line returns the next non-blank line without its newline, valid until the
// next call. At the end of the body it returns io.EOF, or
// io.ErrUnexpectedEOF with the unterminated remainder.
func (s *lineStream) line() ([]byte, error) {
	for {
		b, err := s.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			s.long = append(s.long[:0], b...)
			for err == bufio.ErrBufferFull && len(s.long) <= maxLineBytes {
				b, err = s.r.ReadSlice('\n')
				s.long = append(s.long, b...)
			}
			if len(s.long) > maxLineBytes {
				return nil, errLineTooLong
			}
			b = s.long
		}
		switch {
		case err == nil:
			b = b[:len(b)-1]
		case err == io.EOF:
			if blank(b) {
				return nil, io.EOF
			}
			return b, io.ErrUnexpectedEOF
		default:
			return b, err
		}
		if !blank(b) {
			return b, nil
		}
	}
}

// blank reports whether b holds only JSON whitespace.
func blank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

func (s *lineStream) Close() error { return s.body.Close() }

// shardContext is what every shard of one Distribute shares, handed to the
// Transport through the Send context: the plan's task labels, which
// HTTPTransport gives the shard's line stream, and the `{"query":…` prefix
// of the shard bodies, the query encoded once, after which HTTPTransport
// writes each shard's range. The coordinator sends every shard of its query
// under its own shardContext; wrapping Transports pass the context through,
// so their shards travel and decode exactly as the bare one's.
type shardContext struct {
	labels      []string
	queryPrefix []byte
}

type shardContextKey struct{}

// newShardContext encodes q once for the shards of one Distribute.
func newShardContext(q *query.Query, labels []string) *shardContext {
	return &shardContext{labels: labels, queryPrefix: query.AppendQuery(append(make([]byte, 0, 512), `{"query":`...), q)}
}

// withShardContext returns ctx carrying sc.
func withShardContext(ctx context.Context, sc *shardContext) context.Context {
	return context.WithValue(ctx, shardContextKey{}, sc)
}

// shardContextOf returns the shardContext in ctx, or an empty one.
func shardContextOf(ctx context.Context) *shardContext {
	if sc, ok := ctx.Value(shardContextKey{}).(*shardContext); ok {
		return sc
	}
	return &noShardContext
}

var noShardContext shardContext
