package edgecluster

import (
	"repro/internal/adnet"
	"repro/internal/edge"
	"repro/internal/tracing"
)

// NewGateway serves c with edge.NewServer, behind an ad network that
// holds no campaigns. clock may be nil (wall clock).
func NewGateway(c *Cluster, clock edge.Clock, opts ...edge.ServerOption) (*edge.Server, error) {
	return edge.NewServer(c, new(adnet.Network), clock, nil, opts...)
}

// WithGatewayTracer is edge.WithTracer.
func WithGatewayTracer(t *tracing.Tracer) edge.ServerOption { return edge.WithTracer(t) }
