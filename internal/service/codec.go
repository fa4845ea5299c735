package service

import (
	"dense802154/internal/query"
	"dense802154/internal/wire"
)

// The request/response codecs live in internal/query — the unified query
// layer and this HTTP front-end share one wire vocabulary, so the v1
// endpoints and the v2 /query surface cannot drift apart. The aliases below
// name the wire types the v1 handlers in handlers.go build and return; the
// rest of the vocabulary is used from internal/query directly.
//
// The v1 → v2 mapping is the v1 route table in handlers.go: every frozen
// POST /v1 route is a translator that lowers its request to a query.Query
// and reshapes the ResultSet into its v1 response. v2 additionally expresses
// grid axes as ranges ({"from":55,"to":95,"points":81} or
// {"from":5,"to":123,"step":2}), not just explicit lists, and wraps every
// outcome in one tagged ResultSet ({"version":2,"kind":...,"results":[...]})
// whose per-task payloads are the v1 response shapes; /v2/query/stream
// emits exactly those TaskResults as NDJSON lines followed by a summary
// line. The v1 endpoints are maintained but frozen: new axes land as Query
// fields, not new routes.
type (
	// Error is a structured request-validation failure rendered as a 400.
	Error = query.Error
	// ParamsWire is the JSON form of core.Params.
	ParamsWire = query.ParamsWire
	// MetricsWire is the JSON form of core.Metrics.
	MetricsWire = query.MetricsWire
	// CaseStudyConfigWire is the JSON form of core.CaseStudyConfig.
	CaseStudyConfigWire = query.CaseStudyConfigWire
	// CaseStudyResultWire is the JSON form of core.CaseStudyResult.
	CaseStudyResultWire = query.CaseStudyResultWire
	// SimConfigWire is the JSON form of netsim.Config.
	SimConfigWire = query.SimConfigWire
	// SimResultWire is the JSON headline of one netsim.Result replica.
	SimResultWire = query.SimResultWire
	// ReplicaStatWire is the JSON form of netsim.ReplicaStat.
	ReplicaStatWire = query.ReplicaStatWire
)

// Float is the exact-round-trip JSON float shared with the scenario golden
// files; see internal/wire for the encoding contract.
type Float = wire.Float
