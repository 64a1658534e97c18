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
// message to the master core on DIMM 0 and waits for an individual
// release — there is no hierarchical aggregation, which is exactly why
// these schemes scale poorly with core count.
//
// msg carries one synchronization message between DIMMs using the
// mechanism's own transport and returns its delivery time. Messages from
// threads already on the central DIMM cost only the local
// IntraDIMMSyncCost. Messages go out in arrival order, ties broken by
// DIMM, so the release does not depend on how the threads are numbered.
func CentralizedBarrier(arrivals []sim.Time, threadDIMM []int,
	msg func(at sim.Time, src, dst int) sim.Time) sim.Time {
	const central = 0

	order := make([]int, len(arrivals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if arrivals[i] != arrivals[j] {
			return arrivals[i] < arrivals[j]
		}
		if threadDIMM[i] != threadDIMM[j] {
			return threadDIMM[i] < threadDIMM[j]
		}
		return i < j
	})

	var global sim.Time
	for _, i := range order {
		// Every thread pays the intra-DIMM hand-off to its DIMM master
		// before anything leaves the DIMM; remote DIMMs then pay the
		// transport on top.
		arrive := arrivals[i] + IntraDIMMSyncCost
		if threadDIMM[i] != central {
			arrive = msg(arrive, threadDIMM[i], central)
		}
		global = max(global, arrive)
	}
	// Individual releases, one per remote thread.
	release := global
	for _, i := range order {
		if d := threadDIMM[i]; d != central {
			release = max(release, msg(global, central, d))
		}
	}
	return release + IntraDIMMSyncCost
}
