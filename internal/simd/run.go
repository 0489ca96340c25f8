package simd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"tokencmp/internal/experiments"
	"tokencmp/internal/stats"
)

// Response is the JSON body for a completed experiment. It is built
// with a fixed field order and no wall-clock content, so equal cache
// keys produce byte-identical bodies — the property the singleflight
// cache and the CI smoke test rely on.
type Response struct {
	Protocol   string  `json:"protocol"`
	Workload   string  `json:"workload"`
	Runs       int     `json:"runs"`
	RuntimeNS  float64 `json:"runtime_ns"`      // mean over runs
	RuntimeCI  float64 `json:"runtime_ci95_ns"` // 0 for a single run
	Events     uint64  `json:"events"`          // summed over runs
	Misses     uint64  `json:"l1_misses"`
	Persistent uint64  `json:"persistent"`
	Acquires   uint64  `json:"acquires"`
	Violations int     `json:"violations"`
	IntraBytes uint64  `json:"intra_cmp_bytes"`
	IntraMsgs  uint64  `json:"intra_cmp_messages"`
	InterBytes uint64  `json:"inter_cmp_bytes"`
	InterMsgs  uint64  `json:"inter_cmp_messages"`
}

// runRequest executes every seed of a normalized, validated request
// serially under ctx (daemon-level parallelism comes from concurrent
// requests, not from fanning one request out) and renders the
// deterministic response body.
func runRequest(ctx context.Context, req Request) ([]byte, error) {
	switch req.Workload {
	case ChaosPanic:
		panic("simd: chaos panic workload")
	case ChaosHang:
		<-ctx.Done()
		return nil, ctx.Err()
	}
	spec := req.Spec()
	cells, err := experiments.RunCells(ctx, []experiments.Spec{spec}, 1)
	if err != nil {
		return nil, err
	}
	c := cells[0]
	resp := Response{
		Protocol:   spec.Protocol,
		Workload:   spec.Workload,
		Runs:       c.Runtime.N(),
		RuntimeNS:  c.Runtime.Mean(),
		Events:     c.Events,
		Misses:     c.Misses,
		Persistent: c.Persist,
		Acquires:   c.Acquires,
		Violations: c.Violations,
		IntraBytes: c.Traffic.TotalBytes(stats.IntraCMP),
		IntraMsgs:  c.Traffic.TotalMessages(stats.IntraCMP),
		InterBytes: c.Traffic.TotalBytes(stats.InterCMP),
		InterMsgs:  c.Traffic.TotalMessages(stats.InterCMP),
	}
	if resp.Runs > 1 {
		resp.RuntimeCI = c.Runtime.CI95()
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		return nil, fmt.Errorf("simd: encode response: %w", err)
	}
	return buf.Bytes(), nil
}
