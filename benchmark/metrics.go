package main

import "repro/internal/scalebench"

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer
// list. The lists here and in BENCHMARK.json are the same (a test
// compares them); README.md defines every name.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. The driver wants every one of them from every workload,
// so each is defined per workload (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"throughput", "1/s", higher, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the metrics of single layers, from the traced run. A
// workload reports 0 for the layers it does not exercise.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Named end-to-end figures of one workload family, kept beside the
		// layers because the driver's end-to-end list must hold for all four.
		{"sat_rps", "1/s", higher, 0},
		{"p50_ms", "ms", lower, 0},
		{"p99_ms", "ms", lower, 0},
		{"cpu_us_per_req", "us", lower, 0},
		{"seq_overhead_x", "x", lower, 0},
		{"sbd_time_s", "s", lower, 0},
		{"txns_s", "1/s", higher, 0},

		{"minihttp.wait_us", "us", lower, 0},
		{"minihttp.sock_read_us", "us", lower, 0},
		{"minihttp.reads_per_req", "1/req", lower, 0},
		{"minihttp.parse_us", "us", lower, 0},
		{"minihttp.format_us", "us", lower, 0},
		{"txio.readline_us", "us", lower, 0},
		{"txio.write_us", "us", lower, 0},
		{"txio.flush_us", "us", lower, 0},
		{"txio.flushes_per_req", "1/req", lower, 0},
		{"core.suspend_self_us", "us", lower, 0},
		{"core.atomic_self_us", "us", lower, 0},
		{"core.split_self_us", "us", lower, 0},
		{"core.replays_per_kreq", "1/kreq", lower, 0},
		{"core.atomic_ns", "ns", lower, 0},
		{"core.split_ns", "ns", lower, 0},
		{"shop.handle_us", "us", lower, 0},
		{"shop.browse_us", "us", lower, 0},
		{"shop.add_us", "us", lower, 0},
		{"shop.checkout_us", "us", lower, 0},
		{"shop.non2xx_per_kreq", "1/kreq", lower, 0},

		{"stm.acquire_per_req", "1/req", lower, 0},
		{"stm.check_owned_per_req", "1/req", lower, 0},
		{"stm.check_new_per_req", "1/req", lower, 0},
		{"stm.aborts_per_kreq", "1/kreq", lower, 0},
		{"stm.contended_per_kreq", "1/kreq", lower, 0},
		{"stm.casfail_per_kreq", "1/kreq", lower, 0},
		{"stm.deadlocks", "count", lower, 0},
		{"stm.invis_reads_per_req", "1/req", higher, 0},
		{"stm.validation_aborts_per_kreq", "1/kreq", lower, 0},
		{"stm.slot_wait_us_per_req", "us", lower, 0},
		{"stm.mode_flips", "count", lower, 0},
		{"stm.bias_grants_per_req", "1/req", higher, 0},
		{"stm.promotions_per_kreq", "1/kreq", lower, 0},

		{"memdb.reads_per_req", "1/req", lower, 0},
		{"memdb.writes_per_req", "1/req", lower, 0},
		{"memdb.conflicts_per_kreq", "1/kreq", lower, 0},
		{"memdb.rollbacks_per_kreq", "1/kreq", lower, 0},
		{"memdb.op_ns", "ns", lower, 0},
		{"sbd-serve.alloc_b_per_req", "B", lower, 0},
		{"sbd-serve.gc_cycles_per_kreq", "1/kreq", lower, 0},
		{"obs.metrics_scrape_ms", "ms", lower, 0},
		{"obs.metrics_bytes", "B", lower, 0},
		{"loadgen.lag_p50_us", "us", lower, 0},
		{"loadgen.lag_p99_us", "us", lower, 0},
		{"loadgen.offered_rps", "1/s", higher, 0},
		{"loadgen.dropped", "count", lower, 0},
		{"loadgen.rtt_p50_us", "us", lower, 0},
		{"loadgen.rtt_p99_us", "us", lower, 0},
		{"benchmark.trace_overhead_pct", "%", lower, 0},
	}
	for _, p := range programs {
		defs = append(defs,
			metricDef{"workloads." + p.name + "_overhead_x", "x", lower, 0},
			metricDef{"workloads." + p.name + "_sbd_ms", "ms", lower, 0},
			metricDef{"workloads." + p.name + "_base_ms", "ms", lower, 0})
	}
	defs = append(defs,
		metricDef{"workloads.cov_max", "x", lower, 0},
		metricDef{"workloads.unconverged", "count", lower, 0},
		metricDef{"stm.acquire_per_txn", "1/txn", lower, 0},
		metricDef{"stm.check_owned_per_txn", "1/txn", lower, 0},
		metricDef{"stm.check_new_per_txn", "1/txn", lower, 0},
		metricDef{"stm.init_per_txn", "1/txn", lower, 0},
		metricDef{"stm.undo_per_txn", "1/txn", lower, 0},
		metricDef{"stm.begin_commit_ns", "ns", lower, 0},
		metricDef{"stm.acquire_read_ns", "ns", lower, 0},
		metricDef{"stm.acquire_write_ns", "ns", lower, 0},
		metricDef{"stm.check_owned_ns", "ns", lower, 0},
		metricDef{"stm.check_new_ns", "ns", lower, 0},
		metricDef{"stm.invis_read_ns", "ns", lower, 0},
		metricDef{"stm.batch4_ns", "ns", lower, 0},
		metricDef{"stm.ledger_cover_pct", "%", higher, 0},
	)
	for _, m := range scalebench.Mixes() {
		defs = append(defs,
			metricDef{"scalebench." + m.Name + "_txns_s", "1/s", higher, 0},
			metricDef{"scalebench." + m.Name + "_t1_txns_s", "1/s", higher, 0})
	}
	return append(defs,
		metricDef{"scalebench.scale_x", "x", higher, 0},
		metricDef{"stm.aborts_per_ktxn", "1/ktxn", lower, 0},
		metricDef{"stm.contended_per_ktxn", "1/ktxn", lower, 0},
		metricDef{"stm.casfail_per_ktxn", "1/ktxn", lower, 0},
		metricDef{"stm.validation_aborts_per_ktxn", "1/ktxn", lower, 0},
		metricDef{"stm.invis_reads_per_ktxn", "1/ktxn", higher, 0},
		metricDef{"stm.bias_grants_per_ktxn", "1/ktxn", higher, 0},
		metricDef{"stm.bias_revokes_per_ktxn", "1/ktxn", lower, 0},
		metricDef{"stm.bias_write_thrus_per_ktxn", "1/ktxn", higher, 0},
		metricDef{"stm.batch_words_per_batch", "x", higher, 0},
		metricDef{"stm.slot_waits", "count", lower, 0},
	)
}

// unitOf returns the unit of a listed metric, "" for an unlisted figure.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
