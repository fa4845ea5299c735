// Package dense802154 reproduces Bougard, Catthoor, Daly, Chandrakasan and
// Dehaene, "Energy Efficiency of the IEEE 802.15.4 Standard in Dense
// Wireless Microsensor Networks: Modeling and Improvement Perspectives"
// (DATE 2005) as a self-contained Go library.
//
// # Entry point: the unified query API
//
// The whole model surface is driven through one declarative, versioned
// request type: a Query names an operating point in the paper's parameter
// space (radio, BER model, BO/SO, payload, load, path-loss population,
// improvement flags — or a grid of them) plus a kind selecting what to
// compute, and Run returns one tagged ResultSet:
//
//	rs, err := dense802154.Run(ctx, dense802154.Query{
//		Kind: dense802154.KindEvaluate, // defaults: the paper's §5 node
//	})
//	m := rs.Results[0].Metrics.Metrics()
//	// m.AvgPower, m.PrFail, m.Delay, m.Breakdown ...
//
// The twelve kinds cover the analytical model (evaluate, batch), the §5
// population integration (casestudy), the Fig. 7/8 sweeps (pathloss-sweep,
// thresholds, payload-sweep), the discrete-event simulator (simulate,
// replicas), the network-lifetime integrator (lifetime), the cross-model
// catalog (scenario), the registered paper
// drivers (experiment) and the joint product grid (grid) sweeping several
// axes at once — losses × payloads × beacon orders × node counts, the
// paper-scale Fig. 6 surface workload. Grid axes are fields, expressed as
// explicit lists or ranges — the Query type is JSON-shaped, so a request
// document works verbatim across every transport:
//
//	{"kind":"pathloss-sweep","losses":{"from":55,"to":95,"points":81}}
//	{"kind":"payload-sweep","payloads":{"values":[20,60,120]}}
//	{"kind":"replicas","sim":{"nodes":100},"replicas":8}
//	{"kind":"grid","losses":{"from":55,"to":95,"points":9},
//	 "payloads":{"values":[20,60,120]},"bos":{"values":[6,7,8]},
//	 "nodes":{"values":[10,50,200]}}
//
// Every kind accepts "timeout_ms", a per-query execution deadline
// propagated into every task context (locally and across distributed
// shards); a query either completes with its full deterministic result or
// fails with a deadline error — the HTTP layer answers a structured 504.
//
// Queries validate eagerly (field-scoped errors), compile to a
// deterministic plan of engine tasks and execute on the shared worker
// pool; RunStream additionally yields every TaskResult in plan order
// (batch elements, simulation replicas) while later tasks still compute.
// The same JSON-shaped document runs in-process, over HTTP (POST
// /v2/query) and on the command line (cmd/wsn-query), producing
// bit-identical bytes through all three (ResultSet.Encode is byte-stable).
// A new scenario axis is a new Query field — not a new function, endpoint,
// codec and flag set.
//
// # Classic facade functions (maintained, frozen)
//
// The per-computation facades — Evaluate, EvaluateBatch, RunCaseStudy,
// EnergyVsPathLoss, Thresholds, EnergyVsPayload, Simulate,
// SimulateReplicas, RunScenario, RunExperiment and their *Ctx variants —
// take typed Go arguments and call the engine function the matching query
// kind's plan runs (core, netsim, scenario or the experiment driver), so a
// facade and a Run of the equivalent Query answer the same values. They
// are kept for typed convenience and backward compatibility, maintained
// but frozen: new capability lands as Query fields and kinds, and the
// committed api_surface.golden test pins the exported surface so
// accidental breaking changes fail CI with a reviewable diff.
//
//	p := dense802154.DefaultParams()
//	m, err := dense802154.Evaluate(p) // ≡ Run(ctx, Query{Kind: KindEvaluate, ...})
//
// # Concurrency and determinism
//
// Every computation — single evaluations, sweeps, Monte-Carlo contention
// characterizations, simulation replicas — runs on a worker pool sized by
// the relevant Workers knob, resolved by one shared rule (0 ⇒
// runtime.NumCPU(), 1 ⇒ serial). Results are deterministic and
// worker-count independent: tasks are keyed by plan/grid index, per-shard
// RNG seeds derive from the run seed alone, and identical contention
// points are simulated once per process through a shared memoized cache
// keyed on the exact (payload, load) point. Every Monte-Carlo
// characterization runs on one runner, the shard fill behind
// contention.Resolve: Simulate is a fill of one point, a Fig. 6 curve
// (BuildCurve) a fill of its load points, and a Monte-Carlo source's lookup
// (MCSource.Contention) a one-lookup Resolve, so the cache is filled
// through one protocol (engine.Cache's Acquire, Publish, Abandon and Wait).
// Contention depends on packet size and load only, never on the transmit
// level or path loss, so the model looks it up once per point
// (core.EvaluateWithStats), not once per TX level, and a sweep whose points
// share a configuration looks it up once in all. The cache is LRU-bounded
// on request (SetContentionCacheLimit), instrumented (ContentionCacheStats)
// and resettable (ContentionCacheReset). A canceled context stops Run,
// RunStream and every *Ctx facade promptly with ctx.Err().
//
// A query is materialized exactly once, by query.Compile: its per-task
// inputs sit in index-addressed slices (grid points, replica seeds), every
// task label is a substring of one string, and one run step per plan
// computes task i — or, for the model kinds (evaluate, batch, grid), the
// plan's points, whose distinct contention configurations (ten for a
// 1,000-point grid over ten payloads) each execution resolves once before
// its tasks start: one engine.Map over (configuration × Monte-Carlo shard)
// units under the execution's grant, with Simulate's shard seeds and fold
// order, publishing to the shared cache under its single-flight. Tasks
// then read the resolved statistics, not the cache, so a streamed grid's
// first line waits for the fill. The fill honors the execution's deadline
// and cancellation: once the context is done no further shard starts, and
// the configurations it did not finish are dropped from the cache for the
// next caller to simulate. Execute, ExecuteRange and Assemble only read that plan,
// and the worker grant reaches the tasks as a run-time argument, so one
// compiled plan serves repeated and concurrent executions — the
// coordinator's local flights and a worker's shards share it — and
// compiling the 1,000-point grid costs about twenty allocations
// (query.TestCompileGridAllocBudget), not a closure and two formatted
// labels per point. Execute (the whole plan, streamed or not) and
// ExecuteRange (a worker's shard, or a coordinator range that fell back to
// local execution, one flight at a time under the coordinator's grant) run
// their tasks through one loop: stored-line lookup, configuration fill,
// compute, store write and emission in plan order with wall times. Local and distributed traces
// come from one builder and carry the same spans and per-task seeds.
// Each execution writes its task payloads into one slab cut for its range
// (MetricsWire for the model kinds, SimResultWire for simulate and
// replicas, LifetimeResultWire plus one curve buffer for lifetime, whose
// runs write their curves straight into it), and the replica and lifetime
// summaries fold the payloads without scratch slices. A cold 16-replica
// plan with a store costs 12 allocations and an 8-replica lifetime plan 13,
// none of them per replica (query.TestExecuteReplicasAllocBudget,
// query.TestExecuteLifetimeAllocBudget), and a cold 16-replica
// /v2/query/stream through the HTTP handler about 70
// (service.TestStreamReplicasAllocBudget).
//
// # HTTP service
//
// cmd/wsn-serve runs the query surface as an HTTP JSON API backed by
// NewHTTPHandler:
//
//	wsn-serve -addr :8080 -workers 8 -cache-size 4096 -timeout 2m
//
//	# liveness and counters
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/stats
//
//	# the unified endpoint: one Query document per computation
//	curl -d '{"kind":"evaluate","params":{"payload_bytes":60,"load":0.25}}' localhost:8080/v2/query
//	curl -d '{"kind":"casestudy"}' localhost:8080/v2/query
//	curl -d '{"kind":"pathloss-sweep","losses":{"from":55,"to":95,"points":81}}' localhost:8080/v2/query
//	curl -d '{"kind":"replicas","sim":{"nodes":100},"replicas":8}' localhost:8080/v2/query
//
//	# NDJSON streaming: task results in plan order, then a summary line
//	curl -N -d '{"kind":"batch","batch":[{"payload_bytes":20},{"payload_bytes":120}]}' \
//	  localhost:8080/v2/query/stream
//
// The frozen v1 routes (/v1/evaluate, /v1/batch, /v1/casestudy,
// /v1/sweep/*, /v1/simulate, /v1/experiments, /v1/scenarios) remain for
// existing clients with their bytes unchanged; each POST v1 route is a
// translator onto the same Query → Plan → Execute path, and its route
// table in internal/service is the v1 → v2 mapping. Requests carry optional "workers" fields, but the server clamps
// every grant to its own -workers token budget, so any number of clients
// shares one pool; results are bit-identical to in-process calls
// regardless of the grant. Validation failures return structured 400
// bodies naming the offending field, and a disconnecting client cancels
// its computation (observed between plan tasks, grid points and
// replicas). See examples/serveclient for a complete client. -pprof
// 127.0.0.1:6060 exposes net/http/pprof on a separate listener for
// production profiles of the simulation cores.
//
// # Distributed execution
//
// wsn-serve scales past one machine without changing a single result
// byte. Any wsn-serve is already a worker: POST /v2/tasks accepts a query
// plus a task index range and streams the corresponding results back as
// NDJSON in range order. Starting a server with -peers makes it a
// coordinator: /v2/query plans shard across the fleet and the returned
// ranges merge into a ResultSet byte-identical to a local run —
//
//	wsn-serve -addr :8081 &                              # worker
//	wsn-serve -addr :8082 &                              # worker
//	wsn-serve -addr :8080 -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// The guarantee rests on properties the rest of the repository already
// enforces: plan tasks are pure functions of (query, index), seeds are
// pure functions of (root, index), and ResultSet encoding is byte-stable,
// so any shard is recomputable on any machine at any time. That purity is
// what makes the robustness policy simple (internal/dist):
//
//   - Workers are admitted by a /readyz probe and evicted on failure; an
//     evicted worker is re-probed on an interval and readmitted when it
//     answers. The coordinator keeps its fleet record across queries: a
//     probe or a cleanly ended shard vouches for a worker for 5 s, and a
//     query probes only the workers nothing vouched for, so a busy healthy
//     fleet sends no probes. A draining server flips /readyz to 503 and
//     refuses /v2/tasks with a 503 before its listener closes, so the next
//     dispatch into it fails over and evicts it.
//   - A shard that times out (-shard-timeout), errors, or disconnects
//     mid-stream is re-dispatched elsewhere with jittered exponential
//     backoff (-dist-attempts bounds attempts per range). Streams arrive
//     in range order, so a connection that died after k lines completed
//     exactly its first k tasks and only the remainder is recomputed.
//   - A plan is cut into one shard per worker (-shard-size overrides
//     it), so each worker compiles a query once. A worker left idle while
//     another's shard still has more work than the straggler minimum
//     (tasks left × the mean per-task wall time) splits that shard: the
//     slower worker's range shrinks to the front half of what it has left,
//     and its stream is ended cleanly once that half has arrived, while
//     the back half is dispatched to the idle worker
//     (wsn_dist_shard_splits_total). Short, balanced shards never split.
//   - Stragglers — shards stalled past a threshold derived from the
//     per-task wall times every worker reports — are speculatively
//     duplicated on an idle worker; duplicates are deduplicated by task
//     index, so speculation changes latency, never bytes.
//   - A worker-reported compute error is deterministic by purity and
//     aborts the query; only transport failures are retried.
//   - With the whole fleet lost, execution degrades to local and still
//     completes. Jitter, retries and speculation affect timing only: the
//     merged bytes equal a single-machine Run in every case.
//
// The failure modes are tested through an injectable transport
// (dist.FaultTransport) that can delay, error, drop a stream mid-shard,
// or kill a worker at a chosen task index, plus a -fault-exit-after-tasks
// flag that makes a real worker process exit mid-plan; multi-process
// integration tests assert merged bytes == local bytes under each, and
// the wsn_dist_* metric families (dispatches, retries, re-dispatches,
// straggler speculation, fleet membership) expose the same machinery
// operationally.
//
// # Result store
//
// The same purity argument that lets any shard run on any machine also
// makes every result reusable: a plan task's bytes are a pure function of
// (query, index), so internal/store addresses them by content. The key is
// the SHA-256 of the query's canonical encoding — a normalized, byte-stable
// JSON form in which the execution-only fields (workers, trace,
// timeout_ms) are zeroed, so two queries share a cache line exactly when
// they describe the same computation, regardless of how parallel either
// run was. Under each query key the store holds the encoded per-task
// results and, for untraced queries, the full encoded ResultSet.
//
// The store is two-tiered. A bytes-bounded in-memory LRU (wsn-serve
// -store-mem, 0 disables) fronts an optional on-disk tier (-store-dir)
// whose files carry a trailing SHA-256 and are written
// temp-file-then-rename, so a crash mid-write or a flipped bit on disk
// degrades to a cache miss and a recompute — never a wrong byte. Because
// hits replay stored encodings, a cached answer is bit-identical to a
// fresh one; tests pin this at every layer.
// The memory tier holds one table per query key: the task lines, copied
// into a slab sized for the tasks the query (or a worker's range) puts and
// indexed by task, and the ResultSet body. Recency, the byte budget and
// eviction work per table, which is charged each slab in full when it is
// cut, its body, one index slot per task and its struct, so the budget
// bounds the memory held and storing a cold grid costs a handful of
// allocations whatever its size. A
// hit returns the slab's bytes, cap-limited, which no later put writes; an
// evicted table is dropped and lives on only in lines callers still hold.
//
// What it buys operationally:
//
//   - A repeated /v2/query is answered O(1) from the stored ResultSet with
//     zero engine work and no plan compiled: the handler checks the fields
//     the key drops (version, timeout_ms), looks the key up, and only a
//     miss or a traced query compiles (service.TestQueryHitAllocBudget);
//     a repeated /v2/query/stream is served from the per-task entries,
//     each task a store lookup instead of a recompute.
//   - An interrupted stream persists the tasks it completed; the client's
//     retry resumes from those and recomputes only the remainder.
//   - In a fleet, the coordinator consults the store before dispatching
//     and stores every shard the workers return, while each worker's own
//     /v2/tasks handler serves cached task lines without recomputing.
//     Workers sharing a store directory make the fleet one shared shard
//     cache: any machine's past work answers any machine's future query.
//
// Scenario and experiment queries are excluded (their wire encoding
// is not exact under re-encoding); traced queries bypass the whole-query
// byte cache — traces are measured, not computed — but still reuse and
// populate per-task entries. The wsn_store_* families below expose hit
// rates, resident bytes and disk health; GET /v2/store/stats serves the
// same counters plus memory-tier occupancy as one JSON snapshot.
//
// # Wire encoding
//
// Every result byte — the /v2/query body, each /v2/query/stream line and
// its done line, each /v2/tasks line, every stored task and ResultSet —
// follows one contract: compact JSON in fixed struct-field order, floats in
// the shortest form that parses back to the same bits, non-finite floats as
// the strings "+Inf", "-Inf" and "NaN", strings escaped as encoding/json
// escapes them with HTML escaping off, and one trailing newline per
// document or line. Equal results therefore encode to equal bytes, which is
// what the byte-equality tests, the goldens and the store all compare.
//
// One writer produces those bytes: the reflection-free appenders of
// internal/query (TaskResult.AppendJSON, ResultSet.AppendJSON and an
// appendJSON per nested wire type), built on wire.AppendFloat and
// wire.AppendString. They write into reused buffers, so encoding the
// 1,000-point grid body costs one allocation instead of ~50,000, and the
// stream, task-line and store paths cost none. Each task is formatted
// once: the line a plan execution writes to (or reads from) the task's
// store entry stays on the result, and the /v2/query body, the
// /v2/query/stream line and a worker's /v2/tasks line splice it instead
// of formatting the result again; a body whose results all carry their
// lines is sized once (query.TestSplicedEncodeAllocBudget). TaskResult and ResultSet
// implement json.Marshaler through the same appenders, so any json.Encoder
// writes identical bytes. Only the scenario and experiment payloads, which
// embed foreign report types, still go through encoding/json, appended in
// place.
//
// encoding/json is the oracle, not the writer: TestAppendJSONMatchesEncodingJSON
// fills every field of every result wire type by reflection (NaN, ±Inf,
// −0, subnormals, the 1e21 notation boundary, nil versus empty slices,
// labels with <>&, U+2028 and invalid UTF-8) and requires the appender's
// bytes to equal a json.Encoder's for a method-less copy of the type;
// FuzzTaskResultEncode extends that to arbitrary decodable input and pins
// decode → encode as a fixed point. To add a result field, add it to the
// struct and to its appendJSON in the same change — the oracle test fails
// until both agree. TestResultSetEncodeAllocBudget (≤2 allocations for the
// 1,000-point body) and TestEncodeTaskResultAllocBudget (≤1 per task) fail
// CI on a return to per-field boxing.
//
// One reader decodes them back: a readJSON per result wire type in
// internal/query (TaskDecoder, behind DecodeTaskResult and
// TaskResult.UnmarshalJSON) and dist.DecodeTaskLine for /v2/tasks lines,
// built on the wire.Scanner. The readers take exactly the writer's shape —
// keys in the writer's order — and anything else (other key spellings or
// orders, repeated keys, other value types, invalid JSON) falls back to
// encoding/json on a method-less copy, so accepted inputs and decoded
// values stay encoding/json's. TestDecodeMatchesEncodingJSON and
// FuzzTaskResultDecode hold the reader to that oracle. The coordinator's
// shard streams (dist.NewLineStream) take lines out of a reused bufio
// buffer, decode results into per-shard slabs and share the plan's label
// strings, so the 1,000-line grid shard costs a handful of allocations
// (dist.TestLineStreamAllocBudget) and a store hit two
// (query.TestDecodeTaskResultAllocBudget), where encoding/json spent four
// per line and eleven per hit.
//
// Request bytes follow the same contract and have one writer and one reader
// too (internal/query/request.go). query.AppendQuery writes a Query as a
// json.Encoder with HTML escaping off would; Query.Canonical, whose SHA-256
// is the store key, and the coordinator's /v2/tasks bodies are its output,
// so keying a query allocates nothing (store.TestKeyForAllocBudget) and a
// coordinator encodes its query once per Distribute. query.DecodeQuery and
// dist.DecodeTaskRequest read the writer's shape with the wire.Scanner —
// about two allocations for the 1,000-point grid's body
// (query.TestDecodeQueryAllocBudget), where encoding/json spent 31 — and
// replay the strict decoder (unknown fields rejected, nothing after the
// document) over the same bytes for anything else, so every status and
// message the service and wsn-query answer with is unchanged.
// TestQueryAppendMatchesEncodingJSON, TestQueryDecodeMatchesEncodingJSON,
// FuzzQueryEncode and FuzzQueryDecode hold them to their oracles.
//
// # Observability
//
// GET /metrics serves the server's telemetry in the Prometheus text format
// (internal/telemetry: a zero-dependency registry whose encoding is
// byte-stable, parsed back and lint-checked in CI by
// internal/telemetry/metricslint). The exported families:
//
//	wsn_http_requests_total{route,code}         counter    requests by route pattern and status
//	wsn_http_request_duration_seconds{route}    histogram  request wall time
//	wsn_http_requests_in_flight                 gauge      requests currently executing
//	wsn_http_errors_total{route,class}          counter    non-2xx responses (class 4xx|5xx)
//	wsn_http_panics_total                       counter    handler/collector panics recovered
//	wsn_query_total{kind}                       counter    v2 queries by kind
//	wsn_query_tasks_total                       counter    plan tasks of v2 queries, store hits included
//	wsn_worker_pool_capacity                    gauge      worker-token budget
//	wsn_worker_pool_in_use                      gauge      tokens currently held
//	wsn_worker_acquires_total                   counter    token-pool acquisitions
//	wsn_worker_wait_seconds                     histogram  wait for the first token
//	wsn_uptime_seconds                          gauge      seconds since server start
//	wsn_build_info{version,revision,goversion}  gauge      constant 1
//	wsn_engine_batches_total                    counter    Map/MapSlice batches
//	wsn_engine_task_seconds                     histogram  per-task execution time
//	wsn_engine_task_wait_seconds                histogram  per-task queue wait
//	wsn_contention_cache_hits_total             counter    characterization cache hits
//	wsn_contention_cache_misses_total           counter    characterizations computed
//	wsn_contention_cache_evictions_total        counter    LRU evictions
//	wsn_contention_cache_entries                gauge      resident characterizations
//	wsn_contention_cache_limit                  gauge      configured bound (0 = none)
//	wsn_netsim_runs_total                       counter    completed simulation runs
//	wsn_netsim_events_total                     counter    DES events dispatched
//	wsn_netsim_cca_attempts_total               counter    clear channel assessments
//	wsn_netsim_backoffs_total                   counter    CSMA/CA backoff draws
//	wsn_netsim_heap_depth_max                   gauge      deepest event heap seen
//	wsn_lifetime_runs_total                     counter    completed lifetime integrations
//	wsn_lifetime_epochs_total                   counter    live-simulated epochs
//	wsn_lifetime_deaths_total                   counter    node deaths observed
//	wsn_lifetime_simulated_seconds_total        counter    network time live-simulated
//	wsn_lifetime_fast_forward_seconds_total     counter    network time skipped analytically
//	wsn_dist_queries_total                      counter    queries run through the coordinator
//	wsn_dist_shards_dispatched_total            counter    shard dispatches incl. retries/speculation
//	wsn_dist_retries_total                      counter    shard attempts after the first
//	wsn_dist_redispatch_total                   counter    ranges re-dispatched after worker failure
//	wsn_dist_straggler_redispatch_total         counter    speculative duplicates of stalled shards
//	wsn_dist_shard_splits_total                 counter    shard tails split off to an idle worker
//	wsn_dist_tasks_remote_total                 counter    tasks accepted from workers
//	wsn_dist_tasks_local_total                  counter    tasks computed locally
//	wsn_dist_local_fallback_total               counter    queries degraded to local execution
//	wsn_dist_worker_failures_total              counter    dispatch/stream/probe failures observed
//	wsn_dist_tasks_served_total                 counter    /v2/tasks lines served to coordinators
//	wsn_dist_workers_ready                      gauge      workers the fleet record holds admitted
//	wsn_dist_workers_evicted                    gauge      workers the fleet record holds evicted
//	wsn_store_hits_total                        counter    results served from the store
//	wsn_store_misses_total                      counter    lookups that fell through to compute
//	wsn_store_puts_total                        counter    task lines and bodies written
//	wsn_store_evictions_total                   counter    memory-tier tables (one query each) LRU-evicted
//	wsn_store_disk_hits_total                   counter    misses promoted from the disk tier
//	wsn_store_disk_errors_total                 counter    disk entries rejected (corrupt/unreadable)
//	wsn_store_bytes                             gauge      memory-tier bytes charged to the budget
//	wsn_store_entries                           gauge      memory-tier resident task lines and bodies
//
// A minimal Prometheus scrape config:
//
//	scrape_configs:
//	  - job_name: wsn-serve
//	    static_configs:
//	      - targets: ["localhost:8080"]
//
// Request logging is structured (-log-format text|json, -log-level) with a
// per-request id echoed in X-Request-Id; /healthz reports uptime and build
// info, and every cmd/* binary prints its module version and VCS stamp
// with -version. Queries opt into per-task execution tracing with
// {"trace":true} (or wsn-query -trace): the ResultSet (or the stream's
// done line) gains per-task wall times and replica seeds. Traces are
// measured, not computed — they are excluded from the byte-identity
// contract, which tracing never disturbs.
//
// # Command line
//
// cmd/wsn-query runs one Query document against the same layer:
//
//	echo '{"kind":"evaluate"}' | wsn-query
//	wsn-query -f sweep.json -workers 4
//	wsn-query -f replicas.json -stream   # NDJSON, plan order
//	wsn-query -f sweep.json -plan        # validate + print the plan
//	echo '{"kind":"experiment","experiment":"fig6","quick":true}' | wsn-query
//
// wsn-query's package doc lists the recipes for the paper's results (the
// model at one operating point, the table/figure drivers, the scenario
// golden diff).
//
// # Scenario catalog and golden regression harness
//
// internal/scenario holds a committed catalog of ~17 named operating points
// spanning the axes the paper's figures only sample: density (5→200 nodes),
// traffic (λ ≈ 0.001→0.87), beacon order (BO 3→9), payload (20→123 B),
// path-loss populations reaching the >88 dB efficiency cliff, the §5
// scalable-receiver improvement, and network-lifetime integrations
// (battery-backed and energy-harvesting populations). Each scenario runs through BOTH the
// analytical model (integrated over its loss population) and the
// discrete-event simulator (replicated, with 95% confidence intervals), and
// their agreement is scored per metric against the scenario's declared
// tolerances (absolute + relative + CI slack).
//
// The committed golden files (internal/scenario/testdata/*.golden.json) pin
// every output byte. Runs are deterministic at any worker count, so on one
// platform a golden mismatch is a behavior change, not noise; across
// platforms, drift must stay inside the tolerances. The harness:
//
//	go test ./internal/scenario                          # verify goldens + agreement
//	go test ./internal/scenario -run TestGoldens -update # regenerate after an intended change
//	echo '{"kind":"scenario","scenario":"dense-moderate"}' | wsn-query   # run, report agreement
//	echo '{"kind":"scenario","scenario":"dense-moderate","diff":true}' \
//	  | wsn-query | jq -e '.results[0].scenario.diff.pass'            # regression gate vs embedded goldens
//
// An unknown scenario name is rejected with the catalog's names. The
// service mirrors the catalog at GET /v1/scenarios (the catalog),
// GET /v1/scenarios/{name} (the committed golden) and the same scenario
// query on POST /v2/query. To add a
// scenario, append it to internal/scenario/catalog.go, regenerate with
// -update and commit both; see examples/scenarios for a walkthrough.
//
// # Network lifetime
//
// The paper's energy model exists to answer one field question: how long
// does a dense network live on finite batteries? The lifetime query kind
// (internal/lifetime) attaches a battery.Supply to every netsim node,
// integrates each node's per-state radio energy as the DES runs, kills
// nodes at a shutdown threshold — dead nodes leave the contention
// population live, so the survivors' draw shifts as the network thins —
// and reports first-node-death, partition (alive fraction crossing
// partition_frac, default 0.5) and last-death times with replica CIs,
// plus the fraction-alive-vs-time curve:
//
//	{"kind":"lifetime","sim":{"nodes":12,"seed":7},
//	 "lifetime":{"supply":"cr2032","epoch_superframes":16,"max_epochs":512},
//	 "replicas":8}
//
// Supplies are the internal/battery presets ("cr2032", "aa", "harvester")
// with per-field overrides (capacity_j, self_discharge_per_year,
// harvest_uw, threshold_j). A supply without finite capacity — or one
// whose harvest covers its drain — is sustainable: death times are +Inf
// and the run reports sustainable=true instead of looping forever.
//
// Checkpoint semantics: simulating months of beacons tick by tick would
// be hopeless, so the integrator samples. It live-simulates one epoch
// (epoch_superframes superframes) under real contention, treats the
// measured per-node power as the steady state, fast-forwards analytically
// to just before the next predicted death (self-discharge and harvest
// included), then live-simulates again. Deaths always occur inside a
// simulated epoch, at a beacon boundary; the fast-forward only skips
// spans where the population — and hence the power profile — is provably
// static. Results are deterministic and worker-count independent like
// every other kind, so lifetime queries shard across a fleet and land in
// the result store unchanged. The wsn_lifetime_* families report runs,
// epochs, deaths and the simulated-versus-skipped time split.
//
// Underneath, the DES queue is one 4-ary heap that never holds more than
// one event per node plus one: each beacon schedules the next, and each
// node has at most one pending protocol step (pinned by
// netsim.TestQueueDepthBounded). Its firing order is pinned by replay tests
// against a linear-scan reference queue and by every committed golden.
//
// # Zero-allocation simulation cores
//
// Both event-driven cores run without steady-state heap allocation, so
// sustained Monte-Carlo and discrete-event workloads are CPU-bound rather
// than garbage-collector-bound:
//
//   - internal/des stores events by value in a flat 4-ary min-heap.
//     Models register one typed Dispatcher and schedule (kind, actor,
//     instant) triples instead of per-event closures. A scheduled event
//     always fires: netsim never revokes one, so the kernel keeps no
//     per-event handle and an event is 32 bytes.
//   - The Monte-Carlo contention shards (internal/contention) keep their
//     transaction population in a flat value slice with the CSMA/CA state
//     machines embedded (mac.Attempt.Start reuses storage in place; the
//     run holds the CSMA parameters, checked once per Simulate),
//     recycle whole shards through a sync.Pool, and compare busy windows
//     with precomputed integer slot bounds. Every shard event falls on the
//     backoff-slot grid, so a slot calendar orders them instead of a heap:
//     first CCAs are radix-sorted once into an arrival band, later events
//     go into a power-of-two ring of per-slot FIFOs linked through the
//     transactions themselves (the ring spans the largest backoff window;
//     pushes beyond it wait in an exact overflow band), and the loop skips
//     empty slots through an occupancy bitmap. The pop order is the old
//     (slot, kind, seq) heap order, pinned by a reference-queue oracle
//     test; the ContentionMCShard kernel runs ~3x faster than with the
//     heap, and a warm shard allocates nothing
//     (contention.TestSimulateShardAllocFree).
//   - Every hot random stream is an engine.RNG — a single-word splitmix64
//     rand.Source64 — embedded by value and seeded via engine.DeriveSeed,
//     preserving bit-identical results at any worker count.
//   - Whole netsim runs recycle through a runner arena: netsim.Run draws a
//     *netsim.Runner from a sync.Pool, and Runner.Run resets node, radio
//     device, histogram, medium and event-heap storage in place instead of
//     reallocating it. Every piece of pooled state is rebuilt from the
//     Config and its derived seeds before use, so a recycled run is bit
//     identical to a fresh one (pinned by TestRunnerRecycleBitIdentity),
//     and returned Results copy what they keep so they never alias the
//     arena. Replica sweeps (netsim.RunReplicas, the scenario harness)
//     reuse one arena per worker across all replicas.
//   - The simulated medium keeps its live transmissions in one value-typed
//     slice. A CCA prunes the ended ones (an in-place compaction that
//     writes only the entries that move) and scans the rest for one
//     starting inside its window; collision marking on add scans the same
//     slice. At any CCA the slice holds a handful of entries (0–4 in a
//     200-node superframe), so the scan needs no index and no invariant
//     about the order of the queries.
//
// # Tracked benchmarks
//
// The tracked kernels (serial/parallel engine pairs plus hot-path
// micro-benchmarks) live in one table, internal/benchsuite, with two entry
// points that run the same bodies. cmd/wsn-bench writes a JSON report of
// ns/op, B/op and allocs/op per kernel:
//
//	go run ./cmd/wsn-bench -count 6 -out BENCH_PR36.json  # refresh the baseline
//	go run ./cmd/wsn-bench -diff BENCH_PR36.json          # compare a fresh run
//
// (-count N records each kernel's median ns/op over N runs with the min
// and max)
//
// and the root package's BenchmarkKernels runs each kernel as a
// sub-benchmark (-short selects the -quick sizes), for ns/op medians and
// profiles of the same bodies:
//
//	go test -run NONE -bench 'Kernels/<name>' -count 6
//	go test -run NONE -bench 'Kernels/<name>' -cpuprofile cpu.out
//
// The committed BENCH_*.json files form the repository's performance
// trajectory; CI regenerates a -quick report per push and diffs it against
// the latest baseline: ns/op ratios are warn-only (wall-clock is
// machine-dependent) while allocs/op regressions and baseline kernels the
// run did not produce fail the job (-failallocs). Allocation-budget tests
// fail hard on setup or boxing regressions: des.TestTypedEventLoopAllocFree,
// contention.TestSimulateAllocBudget, contention.TestSimulateShardAllocFree,
// contention.TestResolveAllocBudget,
// netsim.TestRunAllocBudget, lifetime.TestLifetimeRunAllocBudget,
// query.TestResultSetEncodeAllocBudget, query.TestSplicedEncodeAllocBudget,
// query.TestEncodeTaskResultAllocBudget, query.TestCompileGridAllocBudget,
// query.TestExecuteGridAllocBudget, query.TestExecuteReplicasAllocBudget,
// query.TestExecuteLifetimeAllocBudget,
// query.TestDecodeTaskResultAllocBudget,
// query.TestDecodeQueryAllocBudget, dist.TestLineStreamAllocBudget,
// store.TestPutTaskAllocBudget, store.TestKeyForAllocBudget,
// service.TestTaskShardAllocBudget,
// service.TestDistributedQueryAllocBudget,
// service.TestDistributedPrefillAllocBudget,
// service.TestQueryHitAllocBudget, service.TestColdGridSizeAllocBudget and
// service.TestStreamReplicasAllocBudget.
// To
// profile the hot paths under live load, start the service with a
// profiling listener (wsn-serve -pprof 127.0.0.1:6060) and capture
// /debug/pprof/profile while a replica-heavy query runs.
//
// The paper's tables and figures are experiment queries, which set the
// paper's values beside the reproduced ones (see "Command line").
package dense802154
