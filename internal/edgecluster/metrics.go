package edgecluster

import "repro/internal/telemetry"

// clusterMetrics holds the cluster's telemetry handles, resolved once at
// Instrument time so merge/route paths never touch the registry.
type clusterMetrics struct {
	failovers      *telemetry.Counter
	merges         *telemetry.Counter
	degradedMerges *telemetry.Counter
	mergeDropped   *telemetry.Counter
	replicaErrors  *telemetry.Counter
	journalReplays *telemetry.Counter

	// Delta replication accounting.
	replicationBytes         *telemetry.Counter
	replicationSnapshotBytes *telemetry.Counter
	replicationEntries       *telemetry.Counter
	snapshotFallbacks        *telemetry.Counter

	// Failure-detector activity.
	probes        *telemetry.Counter
	probeFailures *telemetry.Counter
	autoDowns     *telemetry.Counter
	autoRevives   *telemetry.Counter
}

// Instrument registers the cluster's fault-tolerance metrics with reg
// and starts recording. Counters: cluster_failovers_total (requests
// rerouted past a down nearest edge), cluster_merges_total,
// cluster_degraded_merges_total (rounds that missed part of the
// cluster), cluster_merge_dropped_total (merged check-ins outside the
// aggregation region), cluster_replica_errors_total (replication applies
// that failed mid-round), cluster_journal_replays_total (journal rounds
// applied during catch-up), cluster_replication_bytes_total (wire bytes
// the content-addressed delta frames actually shipped),
// cluster_replication_snapshot_bytes_total (what full-snapshot
// replication would have shipped for the same applies),
// cluster_replication_entries_total (table entries shipped),
// cluster_snapshot_fallbacks_total (applies whose content proof failed),
// cluster_probes_total / cluster_probe_failures_total (failure-detector
// pings), cluster_auto_downs_total / cluster_auto_revives_total (health
// transitions the detector drove without an operator). Gauges:
// cluster_nodes_down, cluster_nodes_suspect.
func (c *Cluster) Instrument(reg *telemetry.Registry) {
	m := &clusterMetrics{
		failovers:      reg.Counter("cluster_failovers_total", "Requests rerouted to the next-nearest covering edge because the nearest was down."),
		merges:         reg.Counter("cluster_merges_total", "Profile merge rounds completed."),
		degradedMerges: reg.Counter("cluster_degraded_merges_total", "Merge rounds completed without reaching the whole cluster."),
		mergeDropped:   reg.Counter("cluster_merge_dropped_total", "Merged check-ins dropped for falling outside the aggregation region."),
		replicaErrors:  reg.Counter("cluster_replica_errors_total", "Replication applies that failed mid-round, leaving the replica to catch up later."),
		journalReplays: reg.Counter("cluster_journal_replays_total", "Journal rounds applied while catching a node up after downtime or a failed apply."),

		replicationBytes:         reg.Counter("cluster_replication_bytes_total", "Wire bytes shipped to replicas as content-addressed delta frames."),
		replicationSnapshotBytes: reg.Counter("cluster_replication_snapshot_bytes_total", "Wire bytes full-snapshot replication would have shipped for the same applies."),
		replicationEntries:       reg.Counter("cluster_replication_entries_total", "Obfuscation-table entries shipped to replicas."),
		snapshotFallbacks:        reg.Counter("cluster_snapshot_fallbacks_total", "Replication applies whose content proof failed, forcing a full-snapshot delta."),

		probes:        reg.Counter("cluster_probes_total", "Failure-detector pings sent between edges."),
		probeFailures: reg.Counter("cluster_probe_failures_total", "Failure-detector pings that went unanswered."),
		autoDowns:     reg.Counter("cluster_auto_downs_total", "Edges the failure detector confirmed down without an operator."),
		autoRevives:   reg.Counter("cluster_auto_revives_total", "Edges the failure detector revived after probes resumed answering."),
	}
	// Both gauges are counted at scrape time, from the nodes' down flags
	// and the detectors' states, so they are exact however late
	// Instrument runs.
	reg.GaugeFunc("cluster_nodes_down", "Edges currently marked down.", func() float64 {
		down := 0
		for _, n := range c.nodes {
			if n.Down() {
				down++
			}
		}
		return float64(down)
	})
	reg.GaugeFunc("cluster_nodes_suspect", "Edges currently suspected by the failure detector but not yet confirmed down.", func() float64 {
		return float64(c.suspects())
	})
	c.met.Store(m)
}
