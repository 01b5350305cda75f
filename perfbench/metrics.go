package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric names one printed figure and its unit. The names and units
// must match BENCHMARK.json exactly (TestNamesMatchBenchmarkJSON checks it).
type metric struct {
	name, unit string
}

// endToEnd are the figures a user of the deployment sees; every
// workload reports all of them from an untraced run.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"cpu_us_per_op", "us/op"},
	{"alloc_bytes_per_op", "B/op"},
	{"space_factor", "B/B"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's figures, one module per name prefix.
var perLayer = []metric{
	{"wire.read_syscalls_per_op", "1/op"},
	{"wire.write_syscalls_per_op", "1/op"},
	{"wire.bytes_per_op", "B/op"},
	{"wire.self_us", "us/op"},
	{"wire.backend_us", "us/op"},
	{"compliance.rest_us", "us/op"},
	{"compliance.vacuum_fulls_per_kop", "1/kop"},
	{"compliance.vacuums_per_kop", "1/kop"},
	{"compliance.cascade_deletes_per_op", "1/op"},
	{"policy.checks_per_op", "1/op"},
	{"policy.cache_hit_ratio", "ratio"},
	{"policy.cache_invalidations_per_op", "1/op"},
	{"policy.policies_scanned_per_check", "1/check"},
	{"policy.guards_per_check", "1/check"},
	{"policy.adjudicate_ns", "ns/call"},
	{"audit.log_bytes_per_op", "B/op"},
	{"audit.entries_per_op", "1/op"},
	{"audit.log_ns", "ns/call"},
	{"audit.erase_unit_us", "us/call"},
	{"storage.lookups_per_op", "1/op"},
	{"storage.scans_per_op", "1/op"},
	{"storage.rows_examined_per_result", "rows/record"},
	{"storage.entries_reclaimed_per_op", "1/op"},
	{"storage.dead_bytes_ratio", "ratio"},
	{"storage.get_ns", "ns/call"},
	{"storage.insert_ns", "ns/call"},
	{"storage.update_ns", "ns/call"},
	{"storage.delete_ns", "ns/call"},
	{"storage.scan_row_ns", "ns/call"},
	{"wal.appends_per_op", "1/op"},
	{"wal.syncs_per_op", "1/op"},
	{"wal.bytes_per_op", "B/op"},
	{"wal.append_ns", "ns/call"},
	{"cryptox.seal_ns", "ns/call"},
	{"cryptox.open_ns", "ns/call"},
	{"cryptox.sector_read_ns", "ns/call"},
	{"cryptox.sector_write_ns", "ns/call"},
	{"runtime.mallocs_per_op", "1/op"},
	{"runtime.gc_per_kop", "1/kop"},
	{"trace.cpu_overhead_ratio", "ratio"},
}

// ratio divides, reading 0 when the base is 0 (a layer the workload
// never reaches, such as the wire on an in-process workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perOp normalises a counter delta by the number of operations.
func perOp(delta uint64, ops int) float64 { return ratio(float64(delta), float64(ops)) }

// perKop normalises a counter delta per thousand operations.
func perKop(delta uint64, ops int) float64 { return 1000 * perOp(delta, ops) }

// median of the values; the input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the mean of the middle half of the values (the
// interquartile mean): as robust to a stray slow round as the median,
// but it moves with every round instead of snapping to one round's
// figure, whose latency quantiles are loadgen.Histogram bucket
// midpoints.
func midMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := len(s) / 4
	sum := 0.0
	for _, v := range s[k : len(s)-k] {
		sum += v
	}
	return sum / float64(len(s)-2*k)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of the list by name with its unit, one per
// line, then the result object as the last line.
func report(w io.Writer, specs []metric, values map[string]float64, correct bool, attempted, failed int) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(w, "%-36s %14.4f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
