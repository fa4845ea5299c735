// Command wsn-query runs one declarative query against the unified query
// layer — the same versioned Query type POST /v2/query accepts — and
// prints the tagged ResultSet as JSON. It is the command-line third of the
// query surface (in-process dense802154.Run and the HTTP v2 endpoints are
// the other two): the same request document produces bit-identical bytes
// through all three.
//
// Usage:
//
//	wsn-query [-f query.json] [-workers n] [-stream] [-plan]
//
// The query document is read from -f, or from stdin when -f is omitted or
// "-". Examples:
//
//	echo '{"kind":"evaluate","params":{"payload_bytes":60,"load":0.25}}' | wsn-query
//	echo '{"kind":"pathloss-sweep","losses":{"from":55,"to":95,"points":81}}' | wsn-query
//	echo '{"kind":"replicas","sim":{"nodes":50,"superframes":10},"replicas":8}' | wsn-query -stream
//	wsn-query -f casestudy.json -workers 4
//
// The paper's results are query kinds too:
//
//	# The model at one operating point (120 B, λ=0.433, 75 dB, BO=SO=6,
//	# link adaptation): TX level 2, Prcf 0.1155, with the per-phase energy
//	# breakdown and the per-state times.
//	echo '{"kind":"evaluate","params":{"payload_bytes":120,"load":0.433,"path_loss_db":75,"tx_level":-1,"superframe":{"bo":6,"so":6},"n_max":5}}' | wsn-query
//
//	# One table or figure driver (fig3 … fig9, casestudy, ...); "seed"
//	# overrides the default 2005, and "quick" shrinks Monte-Carlo runs.
//	echo '{"kind":"experiment","experiment":"fig6","quick":true}' | wsn-query -workers 4
//
//	# Fig. 4 / eq. (1): the chip-level BER bench swept over received power,
//	# its exponential regression beside the paper's eq. (1), and the
//	# receiver sensitivity (three tables).
//	echo '{"kind":"experiment","experiment":"fig4","quick":true}' | wsn-query
//
//	# One catalog scenario, model vs simulator, diffed against its
//	# committed golden: .results[0].scenario.diff.pass is the verdict and
//	# .byte_identical says whether the bytes match exactly.
//	echo '{"kind":"scenario","scenario":"dense-moderate","diff":true}' | wsn-query
//
// An unknown experiment or scenario name is rejected with the list of
// known names.
//
// -stream emits NDJSON: one TaskResult per line in plan order (batch
// elements and simulation replicas land as they complete), then a final
// {"done":true,...} summary line — the same framing as POST
// /v2/query/stream. -plan validates and prints the compiled execution plan
// without running it. -workers overrides the query's own workers field
// (0 keeps it; results never depend on it). -trace opts into execution
// tracing: the ResultSet (or the stream's done line) carries per-task wall
// times and replica seeds; traces never change computed result bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"dense802154/internal/buildinfo"
	"dense802154/internal/query"
	"dense802154/internal/wire"
)

func main() {
	var (
		file    = flag.String("f", "-", "query JSON file (\"-\" reads stdin)")
		workers = flag.Int("workers", 0, "worker goroutines, overriding the query's workers field (0 keeps it; results are identical at any count)")
		stream  = flag.Bool("stream", false, "emit NDJSON task results in plan order instead of one ResultSet document")
		plan    = flag.Bool("plan", false, "validate and print the execution plan without running it")
		trace   = flag.Bool("trace", false, "attach per-task execution timing to the result (sets the query's trace field)")
		version = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("wsn-query"))
		return
	}
	if err := run(os.Stdout, *file, *workers, *stream, *plan, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "wsn-query:", err)
		os.Exit(1)
	}
}

// run executes the query document in file and writes its result to out.
func run(out io.Writer, file string, workers int, stream, planOnly, trace bool) error {
	var in io.Reader = os.Stdin
	if file != "" && file != "-" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	doc, rerr := io.ReadAll(in)
	var q query.Query
	if err := query.DecodeQuery(doc, rerr, &q); err != nil {
		switch {
		case errors.Is(err, io.EOF):
			return errors.New("empty query document")
		case errors.Is(err, wire.ErrTrailing):
			return errors.New("trailing data after query document")
		}
		return fmt.Errorf("malformed query: %w", err)
	}
	if workers > 0 {
		q.Workers = workers
	}
	if trace {
		q.Trace = true
	}

	p, err := query.Compile(q)
	if err != nil {
		return err
	}
	if planOnly {
		fmt.Fprintf(out, "%s\n", p)
		for i, label := range p.Labels() {
			fmt.Fprintf(out, "  task %d: %s\n", i, label)
		}
		return nil
	}

	// SIGINT/SIGTERM cancel the plan between tasks and grid points, so an
	// interrupted paper-scale sweep exits promptly instead of finishing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Stream lines go through the result writer into one reused buffer, the
	// same bytes /v2/query/stream sends.
	var line []byte
	writeLine := func(b []byte) error {
		line = append(b, '\n')
		_, err := out.Write(line)
		return err
	}

	var yield func(query.TaskResult) error
	if stream {
		yield = func(tr query.TaskResult) error {
			b, err := tr.AppendJSON(line[:0])
			if err != nil {
				return err
			}
			return writeLine(b)
		}
	}
	rs, err := p.Execute(ctx, q.Workers, yield)
	if err != nil {
		return err
	}
	if stream {
		done := rs.StreamDone()
		return writeLine(done.AppendJSON(line[:0]))
	}
	body, err := rs.Encode()
	if err != nil {
		return err
	}
	_, err = out.Write(body)
	return err
}
