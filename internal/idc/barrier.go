package idc

import (
	"sort"

	"repro/internal/sim"
)

// IntraDIMMSyncCost is the per-thread cost of handing a barrier or
// collective arrival to the DIMM's master core (shared-buffer message
// passing). Every mechanism, DIMM-Link included, pays the same cost, so
// barrier comparisons isolate the transport, not the local sync.
const IntraDIMMSyncCost = 20 * sim.Nanosecond

// CentralizedBarrier implements the synchronization scheme of the paper's
// baselines (Section V-D: "MCN, AIM, and DIMM-Link-Central all choose a
// centralized NMP core as the master"): every thread sends its own sync
// message to the central master core and waits for an individual release —
// there is no hierarchical aggregation, which is exactly why these schemes
// scale poorly with core count.
//
// msg carries one synchronization message between DIMMs using the
// mechanism's own transport and returns its delivery time. Messages from
// threads already on the central DIMM cost only the local intraCost.
func CentralizedBarrier(arrivals []sim.Time, threadDIMM []int, intraCost sim.Time, central int,
	msg func(at sim.Time, src, dst int) sim.Time) sim.Time {

	// Deterministic thread order.
	order := make([]int, len(arrivals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if arrivals[order[a]] != arrivals[order[b]] {
			return arrivals[order[a]] < arrivals[order[b]]
		}
		return order[a] < order[b]
	})

	var global sim.Time
	for _, i := range order {
		d := threadDIMM[i]
		// Every thread pays the intra-DIMM hand-off to its DIMM master
		// before anything leaves the DIMM; remote DIMMs then pay the
		// transport on top. (Omitting intraCost on the remote path made
		// remote threads arrive cheaper than local ones.)
		arrive := arrivals[i] + intraCost
		if d != central {
			arrive = msg(arrivals[i]+intraCost, d, central)
		}
		if arrive > global {
			global = arrive
		}
	}
	// Individual releases, one per remote thread.
	release := global
	for _, i := range order {
		d := threadDIMM[i]
		if d == central {
			continue
		}
		if fin := msg(global, central, d); fin > release {
			release = fin
		}
	}
	return release + intraCost
}
