package dist

import (
	"context"

	"dense802154/internal/query"
)

// SetMaxLineBytes lowers the line size limit for a test and returns the
// function that restores it.
func SetMaxLineBytes(n int) (restore func()) {
	old := maxLineBytes
	maxLineBytes = n
	return func() { maxLineBytes = old }
}

// WithPlanLabels returns ctx carrying the plan's task labels as the
// coordinator's Send context does, for tests that call a Transport.
func WithPlanLabels(ctx context.Context, labels []string) context.Context {
	return withShardContext(ctx, &shardContext{labels: labels})
}

// WithShardQuery returns ctx carrying q, encoded once, and the plan's task
// labels as the coordinator's Send context does.
func WithShardQuery(ctx context.Context, q query.Query, labels []string) context.Context {
	return withShardContext(ctx, newShardContext(&q, labels))
}
