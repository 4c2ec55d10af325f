package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef is one entry of the metric dictionary. BENCHMARK.json lists the
// same names, units and directions (a test keeps the two equal); bounds
// live only there.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Layer  string
	E2E    bool // end-to-end (untraced runs) rather than per-layer (traced runs)
}

func e2e(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: "end-to-end", E2E: true}
}

func layer(layerName, name, unit string) metricDef {
	better := "lower"
	if name == "radio.rounds_skipped" || name == "wall.ops_per_s" {
		better = "higher"
	}
	return metricDef{Name: name, Unit: unit, Better: better, Layer: layerName}
}

// catalog is every metric the benchmark reports. A traced run reports every
// per-layer metric on every workload; a layer the workload does not
// exercise reads 0.
var catalog = func() []metricDef {
	c := []metricDef{
		e2e("ops_per_s", "1/s", "higher"),
		e2e("op_ms_p50", "ms", "lower"),
		e2e("op_ms_p90", "ms", "lower"),
		e2e("setup_s", "s", "lower"),
		e2e("rss_mib_p50", "MiB", "lower"),

		layer("host", "host.ref_ms", "ms"),
		layer("host", "wall.ops_per_s", "1/s"),
		layer("host", "wall.op_ms_p50", "ms"),
		layer("host", "wall.op_ms_p90", "ms"),
		layer("process", "peak_rss_mib", "MiB"),

		layer("graph", "graph.gen_s", "s"),
		layer("graph", "graph.edges", "count"),
		layer("graph", "graph.csr_mib_computed", "MiB"),

		layer("radio", "radio.run_ms_p50", "ms"),
		layer("radio", "radio.run_ms_p90", "ms"),
		layer("radio", "radio.self_s", "s"),
		layer("radio", "radio.rounds", "count"),
		layer("radio", "radio.rounds_executed", "count"),
		layer("radio", "radio.rounds_skipped", "count"),
		layer("radio", "radio.tx", "count"),
		layer("radio", "radio.push_edges_computed", "count"),
		layer("radio", "radio.ns_per_push_edge", "ns"),
		layer("radio", "radio.collisions", "count"),

		layer("proto", "proto.begin_s", "s"),
		layer("proto", "proto.decide_s", "s"),
		layer("proto", "proto.decide_calls", "count"),
		layer("proto", "proto.inform_s", "s"),
		layer("proto", "proto.inform_calls", "count"),
		layer("proto", "proto.skip_s", "s"),
		layer("proto", "proto.skip_calls", "count"),
		layer("proto", "proto.share", "frac"),

		layer("energy", "energy.overhead_s", "s"),

		layer("campaign", "campaign.run_s", "s"),
		layer("campaign", "campaign.points_s", "s"),
	}
	for _, f := range families {
		c = append(c, layer("campaign", "campaign.point_s."+f, "s"))
	}
	c = append(c,
		layer("campaign", "campaign.engine_self_s", "s"),
		layer("campaign", "campaign.render_s", "s"),
		layer("campaign", "campaign.sink_append_ms_p50", "ms"),
		layer("campaign", "campaign.sink_append_ms_p90", "ms"),
		layer("campaign", "campaign.records_bytes", "bytes"),
	)
	for _, rpc := range []string{"lease", "complete", "heartbeat", "status", "submit"} {
		c = append(c,
			layer("jobqueue", "rpc."+rpc+"_ms_p50", "ms"),
			layer("jobqueue", "rpc."+rpc+"_ms_p90", "ms"))
	}
	c = append(c, layer("jobqueue", "rpc.errors", "count"))
	for _, rpc := range []string{"lease", "complete", "status"} {
		c = append(c,
			layer("jobqueue", "server."+rpc+"_ms_p50", "ms"),
			layer("jobqueue", "server."+rpc+"_ms_p90", "ms"))
	}
	c = append(c,
		layer("jobqueue", "rpc.transport_ms_p50", "ms"),
		layer("jobqueue", "worker.run_point_ms_p50", "ms"),
		layer("jobqueue", "worker.busy_s", "s"),
		layer("jobqueue", "worker.idle_s", "s"),
		layer("jobqueue", "queue.requeues", "count"),
		layer("jobqueue", "queue.retries", "count"),
		layer("jobqueue", "queue.duplicates", "count"),
		layer("jobqueue", "durability.state_bytes", "bytes"),
		layer("jobqueue", "durability.checkpoint_bytes", "bytes"),
		layer("jobqueue", "status_ms_p50", "ms"),
		layer("jobqueue", "status_ms_p90", "ms"),

		layer("trace", "trace.overhead_frac", "frac"),
		layer("trace", "trace.unattributed_frac", "frac"),
	)
	return c
}()

// families are the experiment families campaign-reduced runs, by ID prefix.
// The registry's one S experiment, S1, is left out (see leftOut).
var families = []string{"F", "E", "X", "N", "G", "C"}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects measured metric values by name.
type values map[string]float64

// pick selects the catalog metrics of one kind from vs, filling per-layer
// metrics the workload did not measure with 0. A missing end-to-end value,
// a name outside the catalog, or a non-finite value is a bug and an error.
func pick(vs values, wantE2E bool) (map[string]metric, error) {
	out := map[string]metric{}
	known := map[string]bool{}
	for _, d := range catalog {
		known[d.Name] = true
		if d.E2E != wantE2E {
			continue
		}
		v, ok := vs[d.Name]
		if !ok && d.E2E {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name := range vs {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	return out, nil
}

// printResult writes the human-readable metric table, by layer in catalog
// order, then the JSON result as the last line.
func printResult(w io.Writer, r result) error {
	for _, d := range catalog {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-10s %-30s %16.6g %s\n", d.Layer, d.Name, m.Value, m.Unit)
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
