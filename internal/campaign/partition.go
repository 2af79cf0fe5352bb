package campaign

import (
	"fmt"
	"sort"
)

// Partition splits jobs into n shards for n workers.
//
// The unit of placement is not the job but the recording group: all
// cells sharing a (workload, layout) pair replay one recorded trace, so
// splitting a group across shards would record the same trace in every
// shard that holds a piece — pure duplicated wall-clock.
//
// Placement is greedy least-loaded over groups sorted by descending
// size: the classic LPT heuristic, which keeps the largest shard within
// a small factor of optimal without needing per-cell cost estimates.
// All ties break deterministically (group key, then shard index), so
// the same jobs and n always produce the same shards — a worker that is
// killed and respawned gets handed exactly its outstanding jobs back,
// and the chaos tests can reason about which shard owns which cell.
//
// Shards may come back empty when there are fewer groups than workers;
// the coordinator simply does not spawn a worker for an empty shard.
func Partition(jobs []JobSpec, n int) [][]JobSpec {
	if n <= 0 {
		n = 1
	}
	type group struct {
		key  string
		jobs []JobSpec
	}
	index := map[string]int{}
	var groups []group
	for _, j := range jobs {
		k := groupKey(j)
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, group{key: k})
		}
		groups[i].jobs = append(groups[i].jobs, j)
	}
	sort.SliceStable(groups, func(a, b int) bool {
		if len(groups[a].jobs) != len(groups[b].jobs) {
			return len(groups[a].jobs) > len(groups[b].jobs)
		}
		return groups[a].key < groups[b].key
	})
	shards := make([][]JobSpec, n)
	loads := make([]int, n)
	for _, g := range groups {
		best := 0
		for i := 1; i < n; i++ {
			if loads[i] < loads[best] {
				best = i
			}
		}
		shards[best] = append(shards[best], g.jobs...)
		loads[best] += len(g.jobs)
	}
	return shards
}

// groupKey is the recording-affinity key: cells with equal keys share a
// (workload, layout) event stream.
func groupKey(j JobSpec) string {
	return fmt.Sprintf("%s|layout%d", j.Workload, j.Config.Layout)
}
