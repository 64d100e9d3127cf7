package loadgen

import (
	"fmt"
	"io"
	"time"

	"puppies/internal/cluster"
	"puppies/internal/psp"
	"puppies/internal/stats"
)

// ClusterSource is anything that can produce gateway statz — the live
// *cluster.Gateway in selfhost runs.
type ClusterSource interface {
	Stats() cluster.Statz
}

// RouteReport is one route's aggregated outcome.
type RouteReport struct {
	Ops        uint64                  `json:"ops"`
	Errors     map[string]uint64       `json:"errors,omitempty"`
	Unexpected uint64                  `json:"unexpected"`
	Latency    stats.HistogramSnapshot `json:"latencyNs"`
}

// ClusterReport captures gateway-side evidence after a selfhost chaos run:
// that overload shedding happened, and that breakers tripped AND came
// back. TestSoakChaosZipf asserts on these, not just on client-side numbers.
type ClusterReport struct {
	GatewaySheds      uint64 `json:"gatewaySheds"`
	BreakerOpens      uint64 `json:"breakerOpens"`
	BreakerRecoveries uint64 `json:"breakerRecoveries"`
	OpenBreakers      int    `json:"openBreakers"`
	Failovers         uint64 `json:"failovers"`
	Hedges            uint64 `json:"hedges"`
}

// Report is a full load run's result, serializable as the -report JSON.
type Report struct {
	Seed              int64                  `json:"seed"`
	DurationSec       float64                `json:"durationSec"`
	Mode              string                 `json:"mode"`
	Corpus            int                    `json:"corpus"`
	Routes            map[string]RouteReport `json:"routes"`
	Client            psp.ClientStats        `json:"client"`
	ItemSheds         uint64                 `json:"itemSheds"`
	Unexpected        uint64                 `json:"unexpected"`
	UnexpectedSamples []string               `json:"unexpectedSamples,omitempty"`
	Cluster           *ClusterReport         `json:"cluster,omitempty"`
}

// TotalOps sums ops across routes.
func (r *Report) TotalOps() uint64 {
	var n uint64
	for _, rr := range r.Routes {
		n += rr.Ops
	}
	return n
}

// Sheds reports how many client-visible 429s occurred (terminal or
// retried), including per-item batch sheds.
func (r *Report) Sheds() uint64 { return r.Client.Overloaded + r.ItemSheds }

// Summary renders a human-readable digest for the CLI.
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "loadgen: seed=%d mode=%s duration=%.2fs ops=%d unexpected=%d sheds=%d retries=%d\n",
		r.Seed, r.Mode, r.DurationSec, r.TotalOps(), r.Unexpected, r.Sheds(), r.Client.Retries)
	for _, route := range sortedRoutes(r.Routes) {
		rr := r.Routes[route]
		fmt.Fprintf(w, "  %-8s ops=%-6d p50=%-10v p99=%-10v p99.9=%-10v max=%-10v errs=%v\n",
			route, rr.Ops,
			time.Duration(rr.Latency.P50Ns).Round(time.Microsecond),
			time.Duration(rr.Latency.P99Ns).Round(time.Microsecond),
			time.Duration(rr.Latency.P999Ns).Round(time.Microsecond),
			time.Duration(rr.Latency.MaxNs).Round(time.Microsecond),
			rr.Errors)
	}
	if r.Cluster != nil {
		fmt.Fprintf(w, "  cluster  gatewaySheds=%d breakerOpens=%d breakerRecoveries=%d openBreakers=%d failovers=%d hedges=%d\n",
			r.Cluster.GatewaySheds, r.Cluster.BreakerOpens, r.Cluster.BreakerRecoveries,
			r.Cluster.OpenBreakers, r.Cluster.Failovers, r.Cluster.Hedges)
	}
	for _, s := range r.UnexpectedSamples {
		fmt.Fprintf(w, "  UNEXPECTED: %s\n", s)
	}
}

// FillCluster folds gateway statz into the report.
func (r *Report) FillCluster(st ClusterSource) {
	s := st.Stats()
	cr := &ClusterReport{
		GatewaySheds: s.Admission.Sheds(),
		OpenBreakers: s.OpenBreakers,
		Failovers:    s.Failovers,
		Hedges:       s.Hedges,
	}
	for _, sh := range s.Shards {
		cr.BreakerOpens += sh.BreakerOpens
		cr.BreakerRecoveries += sh.BreakerRecoveries
	}
	r.Cluster = cr
}
