package main

import (
	"encoding/json"
	"hash/fnv"
	"math/rand/v2"

	"dense802154/internal/query"
)

// request is one generated query body plus what the benchmark knows about it
// without asking the server: its plan task count and whether it is a fresh
// store write inside an otherwise warm mix.
type request struct {
	body  []byte
	tasks int
	fresh bool
}

// workload is one closed-loop traffic mix. Every request is a pure function
// of (seed, workload name, request index); the server only ever sees the
// generated bodies.
type workload struct {
	name    string
	clients int
	stream  bool // POST /v2/query/stream instead of /v2/query
	dist    bool // coordinator plus two workers
	// requests returns the timed request stream of one seed.
	requests func(seed int64) func(i int) request
	// warmup returns the fixed untimed requests sent after the servers
	// report ready.
	warmup func(seed int64) []request
}

// workloads lists the benchmark's traffic mixes in run order; why each one
// exists is recorded in bench/README.md and BENCHMARK.json.
var workloads = []workload{
	{
		name:     "grid-cold",
		clients:  1,
		requests: cold("grid-cold", coldGrid),
		warmup:   warmups("grid-cold", coldGrid),
	},
	{
		name:     "warm-mix",
		clients:  2,
		requests: func(seed int64) func(int) request { return mixGen{seed: seed, set: workingSet(seed)}.at },
		warmup:   workingSet,
	},
	{
		name:     "sim-stream",
		clients:  1,
		stream:   true,
		requests: cold("sim-stream", simStream),
		warmup:   warmups("sim-stream", simStream),
	},
	{
		name:     "lifetime",
		clients:  1,
		requests: cold("lifetime", lifetimeRun),
		warmup:   warmups("lifetime", lifetimeRun),
	},
	{
		name:     "dist-fanout",
		clients:  1,
		dist:     true,
		requests: cold("dist-fanout", coldGrid),
		warmup:   warmups("dist-fanout", smallGrid),
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cold adapts a per-request generator to a workload's request stream.
func cold(stream string, gen func(int64, string, int) request) func(int64) func(int) request {
	return func(seed int64) func(int) request {
		return func(i int) request { return gen(seed, stream, i) }
	}
}

// warmupCount is the fixed number of untimed requests each cold workload
// sends after its servers report ready.
const warmupCount = 2

// warmups draws the warm-up requests of a cold workload from its own stream,
// so they never collide with a timed request.
func warmups(stream string, gen func(int64, string, int) request) func(int64) []request {
	return func(seed int64) []request {
		out := make([]request, warmupCount)
		for i := range out {
			out[i] = gen(seed, stream+"/warmup", i)
		}
		return out
	}
}

// derive is the per-request seed: a splitmix64 finalizer over the run seed,
// the stream name and the request index.
func derive(seed int64, stream string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func rng(seed int64, stream string, i int) *rand.Rand {
	return rand.New(rand.NewPCG(derive(seed, stream, i), 0x5eed))
}

func ptr[T any](v T) *T { return &v }

func mustBody(q query.Query, tasks int, fresh bool) request {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // every generated query is a plain value tree
	}
	return request{body: b, tasks: tasks, fresh: fresh}
}

// mcParams is a Monte-Carlo contention base point with its own seed.
func mcParams(superframes int, seed int64) *query.ParamsWire {
	return &query.ParamsWire{Contention: &query.ContentionWire{Superframes: superframes, Seed: ptr(seed)}}
}

// gridPayloads are the ten payload sizes of the cold grid.
var gridPayloads = []int{10, 20, 30, 40, 50, 60, 70, 80, 100, 120}

// coldGrid is a never-seen 1000-point grid: losses 50→90 dB over 20
// points × ten payloads × BO 6..10, Monte-Carlo contention at 8
// superframes under a fresh seed.
func coldGrid(seed int64, stream string, i int) request { return grid(seed, stream, i, 20) }

// smallGrid is coldGrid with two loss points (100 grid points). It warms a
// dist fleet up: a fresh fleet's first full-size grid sometimes stalls for
// about 200 ms after the workers have finished their shards, which would
// make set-up times bimodal (see bench/README.md).
func smallGrid(seed int64, stream string, i int) request { return grid(seed, stream, i, 2) }

func grid(seed int64, stream string, i, losses int) request {
	q := query.Query{
		Kind:     query.KindGrid,
		Params:   mcParams(8, rng(seed, stream, i).Int64()),
		Losses:   &query.Axis{From: ptr(query.Float(50)), To: ptr(query.Float(90)), Points: ptr(losses)},
		Payloads: &query.IntAxis{Values: gridPayloads},
		BOs:      &query.IntAxis{From: ptr(6), To: ptr(10)},
	}
	return mustBody(q, losses*len(gridPayloads)*5, false)
}

// simStream is a cold 16-replica run of 100 nodes over 8 superframes.
func simStream(seed int64, stream string, i int) request {
	q := query.Query{
		Kind:     query.KindReplicas,
		Sim:      &query.SimConfigWire{Nodes: ptr(100), Superframes: ptr(8), Seed: ptr(rng(seed, stream, i).Int64())},
		Replicas: 16,
	}
	return mustBody(q, 16, false)
}

// lifetimeRun is a cold 8-replica lifetime run of 24 nodes on the default
// CR2032 supply and epoch length.
func lifetimeRun(seed int64, stream string, i int) request {
	q := query.Query{
		Kind:     query.KindLifetime,
		Sim:      &query.SimConfigWire{Nodes: ptr(24), Seed: ptr(rng(seed, stream, i).Int64())},
		Replicas: 8,
	}
	return mustBody(q, 8, false)
}

// workingSetSize is the number of distinct warm-mix queries.
const workingSetSize = 48

// freshShare is the warm-mix fraction of fresh store-missing evaluations.
const freshShare = 0.10

// workingSet builds the 48 warm-mix queries of a seed. The Zipf rank of each
// kind is fixed (the seed moves only parameter values), so the popularity of
// cheap and expensive kinds, and hence the mix cost, does not depend on the
// seed.
func workingSet(seed int64) []request {
	out := make([]request, 0, workingSetSize)
	for j := 0; j < workingSetSize/6; j++ {
		r := rng(seed, "warm-mix/set", j)
		loss := func() *query.Float { return ptr(query.Float(50 + 40*r.Float64())) }
		evaluate := func() request {
			p := mcParams(12, r.Int64())
			p.PathLossDB = loss()
			p.PayloadBytes = ptr(gridPayloads[r.IntN(len(gridPayloads))])
			return mustBody(query.Query{Kind: query.KindEvaluate, Params: p}, 1, false)
		}
		grid := mcParams(12, r.Int64())
		payload := mcParams(12, r.Int64())
		payload.PathLossDB = loss()
		from := query.Float(45 + 10*r.Float64())
		out = append(out,
			evaluate(),
			mustBody(query.Query{
				Kind:     query.KindGrid,
				Params:   grid,
				Losses:   &query.Axis{From: &from, To: ptr(from + 40), Points: ptr(10)},
				Payloads: &query.IntAxis{Values: []int{20, 40, 60, 80, 100}},
				BOs:      &query.IntAxis{Values: []int{6, 8}},
			}, 100, false),
			mustBody(query.Query{
				Kind:   query.KindCaseStudy,
				Params: mcParams(12, r.Int64()),
				Config: &query.CaseStudyConfigWire{LossGridPoints: ptr(21)},
			}, 1, false),
			mustBody(query.Query{
				Kind:     query.KindReplicas,
				Sim:      &query.SimConfigWire{Nodes: ptr(50), Superframes: ptr(4), Seed: ptr(r.Int64())},
				Replicas: 4,
			}, 4, false),
			evaluate(),
			mustBody(query.Query{Kind: query.KindPayloadSweep, Params: payload}, 1, false),
		)
	}
	return out
}

// mixGen draws warm-mix requests: a fresh Monte-Carlo evaluation with
// probability freshShare, otherwise a Zipf(1.1) rank of the working set.
type mixGen struct {
	seed int64
	set  []request
}

func (g mixGen) at(i int) request {
	r := rng(g.seed, "warm-mix", i)
	if r.Float64() < freshShare {
		p := mcParams(8, r.Int64())
		p.PathLossDB = ptr(query.Float(50 + 40*r.Float64()))
		p.PayloadBytes = ptr(gridPayloads[r.IntN(len(gridPayloads))])
		return mustBody(query.Query{Kind: query.KindEvaluate, Params: p}, 1, true)
	}
	z := rand.NewZipf(r, 1.1, 1, workingSetSize-1)
	return g.set[z.Uint64()]
}
