package main

import (
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// regReading is one read of the process-wide telemetry registry. It is
// the benchmark's only reader of telemetry, so replacing the registry's
// histogram type changes only readRegistry.
type regReading struct {
	counters map[string]float64
	hists    map[string]histReading
}

// histReading is a histogram's observation count, their sum
// (count × mean) and the running maximum.
type histReading struct{ count, sum, max float64 }

func readRegistry() regReading {
	s := telemetry.Default().Snapshot()
	r := regReading{counters: map[string]float64{}, hists: map[string]histReading{}}
	for name, v := range s.Counters {
		r.counters[name] = float64(v)
	}
	for name, h := range s.Histograms {
		r.hists[name] = histReading{count: float64(h.Count), sum: float64(h.Count) * h.Mean, max: h.Max}
	}
	return r
}

// since returns the delta from an earlier reading. The registry is
// cumulative over the process, so counters, counts and sums are
// after − before. A maximum cannot be differenced: it stays the running
// maximum over the run, and reads 0 when the histogram saw nothing new.
func (r regReading) since(before regReading) regReading {
	d := regReading{counters: map[string]float64{}, hists: map[string]histReading{}}
	for name, v := range r.counters {
		d.counters[name] = v - before.counters[name]
	}
	for name, h := range r.hists {
		b := before.hists[name]
		dh := histReading{count: h.count - b.count, sum: h.sum - b.sum}
		if dh.count > 0 {
			dh.max = h.max
		}
		d.hists[name] = dh
	}
	return d
}

// memDelta is the allocator's accounting of one timed call.
type memDelta struct {
	mallocs, allocMB, gcCycles, gcPauseS float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memBetween(a, b runtime.MemStats) memDelta {
	return memDelta{
		mallocs:  float64(b.Mallocs - a.Mallocs),
		allocMB:  float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		gcCycles: float64(b.NumGC - a.NumGC),
		gcPauseS: time.Duration(b.PauseTotalNs - a.PauseTotalNs).Seconds(),
	}
}

// layerMetrics assembles the per-layer metrics of one traced iteration
// from the registry delta, the allocator delta and the benchmark's own
// spans. Histograms of microseconds become seconds.
func layerMetrics(d regReading, mem memDelta, spans map[string]float64) map[string]float64 {
	c, h := d.counters, d.hists
	m := map[string]float64{
		"cluster.messages":        c["cluster.messages"],
		"bench.samples":           c["bench.samples"],
		"bench.retries":           c["bench.retries"],
		"bench.losses":            c["bench.losses"],
		"bench.analyses":          h["bench.analysis_us"].count,
		"bench.analysis_s":        h["bench.analysis_us"].sum / 1e6,
		"campaign.records":        c["campaign.records"],
		"campaign.fsyncs":         h["campaign.fsync_us"].count,
		"campaign.fsync_s":        h["campaign.fsync_us"].sum / 1e6,
		"shard.executors_started": c["shard.executors_started"],
		"shard.reassignments":     c["shard.reassignments"],
		"shard.stalls":            c["shard.stalls"],
		"remote.chunks":           c["remote.chunks_applied"],
		"remote.chunk_bytes":      c["remote.chunk_bytes"],
		"remote.duplicates":       c["remote.chunks_duplicate"],
		"remote.ship_errors":      c["remote.ship_errors"],
		"remote.stale_refused":    c["remote.stale_refused"],
		"remote.heartbeats":       c["remote.heartbeats_forwarded"],
		"suite.configs":           c["suite.configs"],
		"suite.config_s":          h["suite.config_us"].sum / 1e6,
		"suite.config_max_s":      h["suite.config_us"].max / 1e6,
		"suite.occupancy":         ratio(h["suite.occupancy"].sum, h["suite.occupancy"].count),
		"serve.requests":          c["serve.requests"],
		"serve.dropped":           c["serve.dropped"],
		"serve.batches":           c["serve.batches"],
		"go.mallocs":              mem.mallocs,
		"go.alloc_mb":             mem.allocMB,
		"go.gc_cycles":            mem.gcCycles,
		"go.gc_pause_s":           mem.gcPauseS,
	}
	for name, v := range spans {
		m[name] = v
	}
	if m["suite.configs"] > 0 {
		m["bench.collect_s"] = m["suite.config_s"] - m["bench.analysis_s"]
	}
	m["campaign.bytes_per_record"] = ratio(m["campaign.journal_bytes"], m["campaign.records"])
	m["remote.ship_amplification"] = ratio(m["remote.chunk_bytes"], m["campaign.journal_bytes"])
	m["serve.mallocs_per_request"] = ratio(m["go.mallocs"], m["serve.requests"])
	return m
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
