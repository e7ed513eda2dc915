package main

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, measured on its own stack and regime; see
// README.md for what each means on each workload. The bounds are as wide as
// the contract allows because the A/A spread of most metrics on layer-sweep
// reaches a half to two thirds of that on a bad day (README.md, "End-to-end
// metrics and their bounds").
var endToEnd = []metricDef{
	{"open_p50_us", "us", "lower", 0.20},
	{"pread4k_p50_us", "us", "lower", 0.25},
	{"pwrite4k_p50_us", "us", "lower", 0.25},
	{"stat_p50_us", "us", "lower", 0.15},
	{"seq_read_MBps", "MB/s", "higher", 0.25},
	{"seq_write_MBps", "MB/s", "higher", 0.25},
	{"lifecycle_per_s", "1/s", "higher", 0.25},
	{"create_fsync_p50_us", "us", "lower", 0.25},
	{"cryptfs_MBps", "MB/s", "higher", 0.25},
	{"compfs_MBps", "MB/s", "higher", 0.25},
	{"snapfs_MBps", "MB/s", "higher", 0.25},
	{"mirrorfs_MBps", "MB/s", "higher", 0.25},
	{"stripefs_MBps", "MB/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by a traced run.
// They describe the workload's own script (see workload.round) and have no
// bound; a metric whose layer or call the workload does not have reads 0.
// README.md says where each comes from and what it should move.
var perLayer = []metricDef{
	{Name: "unixapi.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "unixapi.open_p99_us", Unit: "us", Better: "lower"},
	{Name: "unixapi.pread4k_p99_us", Unit: "us", Better: "lower"},
	{Name: "unixapi.stat_p99_us", Unit: "us", Better: "lower"},
	{Name: "unixapi.create_fsync_p99_us", Unit: "us", Better: "lower"},
	{Name: "naming.resolve_hit_us", Unit: "us", Better: "lower"},
	{Name: "spring.null_call_us", Unit: "us", Better: "lower"},
	{Name: "spring.crossings_per_op", Unit: "count", Better: "lower"},
	{Name: "spring.crossing_us_per_op", Unit: "us", Better: "lower"},
	{Name: "vm.hit_us", Unit: "us", Better: "lower"},
	{Name: "vm.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "vm.sweeps_per_miss", Unit: "count", Better: "lower"},
	{Name: "vm.flush_pages_per_extent", Unit: "count", Better: "higher"},
	{Name: "vm.flush_extents_per_fsync", Unit: "count", Better: "lower"},
	{Name: "vm.pool_miss_rate", Unit: "ratio", Better: "lower"},
	{Name: "coherency.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "coherency.page_ins_per_read", Unit: "count", Better: "lower"},
	{Name: "coherency.write_through_runs_per_fsync", Unit: "count", Better: "lower"},
	{Name: "coherency.revoke_us", Unit: "us", Better: "lower"},
	{Name: "disklayer.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "disklayer.readahead_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "disklayer.alloc_contig_share", Unit: "ratio", Better: "higher"},
	{Name: "disklayer.txns_per_lifecycle", Unit: "count", Better: "lower"},
	{Name: "disklayer.txns_per_barrier", Unit: "count", Better: "higher"},
	{Name: "blockdev.reads_per_op", Unit: "count", Better: "lower"},
	{Name: "blockdev.writes_per_op", Unit: "count", Better: "lower"},
	{Name: "blockdev.blocks_per_io", Unit: "count", Better: "higher"},
	{Name: "blockdev.flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "blockdev.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "blockdev.written_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "blockdev.raw_seq_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "dfs.rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "dfs.bytes_per_rpc", Unit: "B", Better: "higher"},
	{Name: "dfs.cpu_us_per_rpc", Unit: "us", Better: "lower"},
	{Name: "dfs.retries", Unit: "count", Better: "lower"},
	{Name: "dfs.timeouts", Unit: "count", Better: "lower"},
	{Name: "cfs.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "netsim.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "netsim.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "netsim.wait_share", Unit: "ratio", Better: "lower"},
	{Name: "cryptfs.self_us_per_page", Unit: "us", Better: "lower"},
	{Name: "compfs.self_us_per_page", Unit: "us", Better: "lower"},
	{Name: "snapfs.self_us_per_page", Unit: "us", Better: "lower"},
	{Name: "mirrorfs.self_us_per_page", Unit: "us", Better: "lower"},
	{Name: "stripefs.self_us_per_page", Unit: "us", Better: "lower"},
	{Name: "compfs.stored_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "snapfs.cow_blocks_per_write", Unit: "count", Better: "lower"},
	{Name: "mirrorfs.lower_writes_per_write", Unit: "ratio", Better: "lower"},
	{Name: "stripefs.fanout_ops_per_call", Unit: "count", Better: "lower"},
	{Name: "stripefs.fanout_wide_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.closure_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}
