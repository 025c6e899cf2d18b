package dist

import "repro/internal/obs"

// Coordinator metrics, registered in the process-wide registry. All
// out-of-band: they count coordinator loop events and observe merge
// progress, never the record bytes, so the merged stream is identical
// with the registry on or off.
var (
	metDispatches = obs.Default.Counter("meshopt_coord_dispatches_total",
		"Shard dispatches sent to workers (retries and steals included).")
	metRetries = obs.Default.Counter("meshopt_coord_retries_total",
		"Failed attempts that were retried.")
	metSteals = obs.Default.Counter("meshopt_coord_steals_total",
		"Stalled attempts killed and re-dispatched by the steal check.")
	metBackoffWaits = obs.Default.Counter("meshopt_coord_backoff_waits_total",
		"Retry backoff sleeps.")
	metBackoffSeconds = obs.Default.Counter("meshopt_coord_backoff_seconds_total",
		"Time spent in retry backoff sleeps.")
	metSpawns = obs.Default.Counter("meshopt_coord_worker_spawns_total",
		"Worker processes spawned (long-lived: usually one per slot).")
	metHeartbeats = obs.Default.Counter("meshopt_coord_heartbeats_total",
		"#ready heartbeats consumed from workers.")
	metFrontier = obs.Default.Gauge("meshopt_coord_frontier_cells",
		"Global merge frontier (cells fully merged).")
	metShardCell = obs.Default.GaugeVec("meshopt_coord_shard_frontier_cell",
		"Last cell merged per shard — the gap to meshopt_coord_frontier_cells is that shard's lag.", "shard")
	metStallSeconds = obs.Default.Counter("meshopt_coord_frontier_stall_seconds_total",
		"Frontier stall time observed by the steal check before each steal.")
)
