package httpapi

import (
	"fmt"
	"io"

	"freecursive"
	"freecursive/internal/store"
)

// GET /metrics renders the store's counters in the Prometheus text
// exposition format (version 0.0.4), derived from the same snapshots that
// back /stats and /shards — no separate bookkeeping, no client library.
// Counter samples are cumulative since process start (a restart resets
// them, which Prometheus' rate() handles); the stats snapshot and the
// lifecycle snapshot are taken back to back, not atomically, so a shard's
// state and its counters may differ by a few in-flight requests.

// metric emits one metric family: HELP, TYPE, then each (labels, value)
// sample. Label strings must be pre-rendered ({shard="3"}) or empty.
func metric(w io.Writer, name, typ, help string, samples ...sample) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %s\n", name, s.labels, s.value)
	}
}

type sample struct {
	labels string
	value  string
}

func count(v uint64) string   { return fmt.Sprintf("%d", v) }
func gaugef(v float64) string { return fmt.Sprintf("%g", v) }

// writeMetrics renders every exported series. Aggregate series carry no
// labels; per-shard series carry {shard="i"}; shard lifecycle is one 0/1
// series per (shard, state) pair, the Prometheus idiom for enums; serving
// transports carry {transport="binary"}.
func writeMetrics(w io.Writer, st *store.Store, transports []TransportSource) {
	per := st.ShardStats()
	agg := store.Aggregate(per)
	infos := st.ShardInfos()

	metric(w, "oramstore_shards", "gauge", "Number of ORAM shards.",
		sample{"", count(uint64(st.Shards()))})
	metric(w, "oramstore_blocks", "gauge", "Total capacity in blocks.",
		sample{"", count(st.Blocks())})
	metric(w, "oramstore_block_bytes", "gauge", "Block size in bytes.",
		sample{"", count(uint64(st.BlockBytes()))})

	counter := func(name, help string, get func(freecursive.Stats) uint64) {
		samples := make([]sample, 0, len(per)+1)
		samples = append(samples, sample{"", count(get(agg))})
		for i, s := range per {
			samples = append(samples, sample{shardLabel(i), count(get(s))})
		}
		metric(w, name, "counter", help, samples...)
	}
	counter("oramstore_accesses_total", "LLC-level accesses served.",
		func(s freecursive.Stats) uint64 { return s.Accesses })
	counter("oramstore_backend_accesses_total", "ORAM tree path reads+writes.",
		func(s freecursive.Stats) uint64 { return s.BackendAccesses })
	counter("oramstore_bytes_moved_total", "Bytes moved to/from untrusted memory.",
		func(s freecursive.Stats) uint64 { return s.BytesMoved })
	counter("oramstore_posmap_bytes_total", "Subset of bytes moved spent on PosMap blocks.",
		func(s freecursive.Stats) uint64 { return s.PosMapBytes })
	counter("oramstore_group_remaps_total", "Compressed-PosMap group remap events.",
		func(s freecursive.Stats) uint64 { return s.GroupRemaps })
	counter("oramstore_mac_checks_total", "PMMAC verifications.",
		func(s freecursive.Stats) uint64 { return s.MACChecks })
	counter("oramstore_integrity_violations_total", "Integrity violations detected by PMMAC.",
		func(s freecursive.Stats) uint64 { return s.Violations })
	counter("oramstore_stash_overflow_total", "Times a stash exceeded its configured capacity.",
		func(s freecursive.Stats) uint64 { return s.StashOverflow })
	counter("oramstore_rebuilds_total", "Bucket-hash backend level rebuilds completed.",
		func(s freecursive.Stats) uint64 { return s.Rebuilds })
	counter("oramstore_rebuild_steps_total", "Bucket operations performed by deamortized rebuild steps.",
		func(s freecursive.Stats) uint64 { return s.RebuildSteps })

	hitRate := make([]sample, 0, len(per)+1)
	hitRate = append(hitRate, sample{"", gaugef(agg.PLBHitRate)})
	for i, s := range per {
		hitRate = append(hitRate, sample{shardLabel(i), gaugef(s.PLBHitRate)})
	}
	metric(w, "oramstore_plb_hit_rate", "gauge",
		"Fraction of PLB probes that hit (aggregate is access-weighted).", hitRate...)

	stashMax := make([]sample, 0, len(per)+1)
	stashMax = append(stashMax, sample{"", count(agg.StashMax)})
	for i, s := range per {
		stashMax = append(stashMax, sample{shardLabel(i), count(s.StashMax)})
	}
	metric(w, "oramstore_stash_max", "gauge", "Peak stash occupancy.", stashMax...)

	// The treetop's depth and size are constants of a shard's configuration
	// (or of the snapshot it resumed), fixed before the first request
	// (leaksink: no access, let alone an address, ever moves them).
	topLevels := make([]sample, 0, len(per))
	topBytes := make([]sample, 0, len(per)+1)
	topBytes = append(topBytes, sample{"", count(agg.TreetopBytes)})
	for i, s := range per {
		topLevels = append(topLevels, sample{shardLabel(i), count(uint64(s.TreetopLevels))})
		topBytes = append(topBytes, sample{shardLabel(i), count(s.TreetopBytes)})
	}
	metric(w, "oramstore_treetop_levels", "gauge",
		"Levels of the shard's ORAM tree, from the root, held in trusted memory.", topLevels...)
	metric(w, "oramstore_treetop_bytes", "gauge",
		"Trusted memory the treetop cache fills at most.", topBytes...)

	shardMetric := func(name, typ, help string, get func(store.ShardInfo) uint64) {
		samples := make([]sample, 0, len(infos))
		for _, info := range infos {
			samples = append(samples, sample{shardLabel(info.Index), count(get(info))})
		}
		metric(w, name, typ, help, samples...)
	}
	shardMetric("oramstore_shard_queue_len", "gauge", "Requests queued on the shard's pipeline.",
		func(i store.ShardInfo) uint64 { return uint64(i.QueueLen) })
	shardMetric("oramstore_shard_queue_cap", "gauge", "Capacity of the shard's request queue.",
		func(i store.ShardInfo) uint64 { return uint64(i.QueueCap) })
	shardMetric("oramstore_shard_enqueued_total", "counter", "Data requests accepted into the shard's queue.",
		func(i store.ShardInfo) uint64 { return i.Enqueued })
	shardMetric("oramstore_shard_coalesced_reads_total", "counter",
		"Reads served by fanning out another read's physical ORAM access.",
		func(i store.ShardInfo) uint64 { return i.CoalescedReads })
	// Like the coalescing counter, the next two are functions of request
	// arrival timing only (leaksink: nothing address-derived reaches them).
	shardMetric("oramstore_shard_overlapped_accesses_total", "counter",
		"ORAM accesses started while an earlier one still waited for untrusted memory.",
		func(i store.ShardInfo) uint64 { return i.OverlappedAccesses })
	shardMetric("oramstore_shard_in_flight_accesses", "gauge",
		"ORAM accesses started and waiting for untrusted memory.",
		func(i store.ShardInfo) uint64 { return uint64(i.InFlight) })

	states := make([]sample, 0, 3*len(infos))
	for _, info := range infos {
		for _, st := range []string{"healthy", "quarantined", "draining"} {
			v := "0"
			if info.State == st {
				v = "1"
			}
			states = append(states, sample{
				fmt.Sprintf(`{shard="%d",state=%q}`, info.Index, st), v})
		}
	}
	metric(w, "oramstore_shard_state", "gauge",
		"Shard lifecycle state (1 for the current state, 0 otherwise).", states...)

	// Series per serving transport: batches, connections and wire bytes.
	batches := make([]sample, 0, len(transports))
	conns := make([]sample, 0, len(transports))
	connsTotal := make([]sample, 0, len(transports))
	inFlight := make([]sample, 0, len(transports))
	bytes := make([]sample, 0, 2*len(transports))
	for _, src := range transports {
		t := src.TransportStats()
		l := func(extra string) string {
			return fmt.Sprintf(`{transport=%q%s}`, t.Transport, extra)
		}
		batches = append(batches, sample{l(""), count(t.Batches)})
		conns = append(conns, sample{l(""), count(t.ConnsOpen)})
		connsTotal = append(connsTotal, sample{l(""), count(t.ConnsTotal)})
		inFlight = append(inFlight, sample{l(""), count(t.InFlight)})
		bytes = append(bytes,
			sample{l(`,direction="read"`), count(t.BytesRead)},
			sample{l(`,direction="written"`), count(t.BytesWritten)})
	}
	metric(w, "oramstore_transport_batches_total", "counter",
		"Batches served, by serving transport.", batches...)
	metric(w, "oramstore_transport_connections", "gauge",
		"Open connections, by serving transport.", conns...)
	metric(w, "oramstore_transport_connections_total", "counter",
		"Connections accepted since start, by serving transport.", connsTotal...)
	metric(w, "oramstore_transport_in_flight_batches", "gauge",
		"Batches submitted to the shard pipelines but not yet answered, by serving transport.",
		inFlight...)
	metric(w, "oramstore_transport_bytes_total", "counter",
		"Wire bytes moved, by serving transport and direction.", bytes...)
}

func shardLabel(i int) string { return fmt.Sprintf(`{shard="%d"}`, i) }
