package fabric

import (
	"sync/atomic"

	"perfq/internal/obs"
	"perfq/internal/shard"
)

// Fabric instrumentation. Per-switch datapath families (packets,
// cache, store, path mix) are registered by each switchsim.Datapath
// under a `switch="name"` label; this file adds the fabric's own
// layer: demux feeder counters and timing, pump transport metrics,
// per-switch batch-processing timing (recorded on the pump workers),
// and the collector's network-merge timing. Like the datapath, the
// feeder keeps plain counters and mirrors them at batch boundaries.

// fabObs is the fabric's mirror + timing set.
type fabObs struct {
	packets  *obs.Counter // stripe 0: feeder-owned mirror of f.packets
	unrouted *obs.Counter
	demuxNs  obs.Hist   // wall time demuxing one fed batch into rings
	mergeNs  obs.Hist   // wall time of one network-wide reconciliation
	swNs     []obs.Hist // per pump worker: batch processing wall time
	tm       *obs.TransportMetrics

	// pump mirrors the lazily-started pump for the scrape-time
	// occupancy gauge (f.pump is feeder-owned).
	pump atomic.Pointer[shard.Workers]
}

// newFabObs builds and registers the fabric families. switchNames are
// in pump-worker order (f.ids order).
func newFabObs(reg *obs.Registry, labels string, switchNames []string) *fabObs {
	o := &fabObs{
		packets:  obs.NewCounter(1),
		unrouted: obs.NewCounter(1),
		swNs:     make([]obs.Hist, len(switchNames)),
		tm:       obs.NewTransportMetrics(len(switchNames)),
	}
	reg.CounterVal("perfq_fabric_packets_total",
		"Records routed to a switch datapath", labels, o.packets)
	reg.CounterVal("perfq_fabric_unrouted_total",
		"Records whose switch ID is absent from the topology", labels, o.unrouted)
	reg.HistVal("perfq_fabric_demux_ns",
		"Wall time demultiplexing one fed batch across switch rings, nanoseconds",
		labels, &o.demuxNs)
	reg.HistVal("perfq_fabric_merge_ns",
		"Wall time of one network-wide collector reconciliation, nanoseconds",
		labels, &o.mergeNs)
	for i, name := range switchNames {
		reg.HistVal("perfq_fabric_switch_batch_ns",
			"Per-switch wall time processing one pump batch, nanoseconds",
			obs.JoinLabels(labels, `switch="`+name+`"`), &o.swNs[i])
	}
	o.tm.Register(reg, obs.JoinLabels(labels, `transport="fabric"`), func() int {
		if p := o.pump.Load(); p != nil {
			return p.Occupancy()
		}
		return 0
	})
	return o
}

// publishFab mirrors the feeder-owned fabric counters. Must run on the
// goroutine feeding (or serially processing) records.
func (f *Fabric) publishFab() {
	if f.obs == nil {
		return
	}
	f.obs.packets.Store(0, f.packets)
	f.obs.unrouted.Store(0, f.unrouted)
}
