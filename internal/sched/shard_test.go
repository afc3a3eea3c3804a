package sched

import (
	"math/rand"
	"testing"
)

// randClaims builds n claims with geometry typical of legalization
// rounds: window-sized boxes scattered over a dieW × dieH extent.
func randClaims(rng *rand.Rand, n, dieW, dieH int) []Claim {
	cls := make([]Claim, n)
	for i := range cls {
		w := 10 + rng.Intn(60)
		h := 1 + rng.Intn(12)
		x := rng.Intn(dieW) - w/2
		y := rng.Intn(dieH) - h/2
		cls[i] = Claim{X0: x, X1: x + w, Y0: y, Y1: y + h}
	}
	return cls
}

// TestPlanShardsPartition: spans must tile [lo,hi) exactly, honor the
// minimum width, and never exceed k.
func TestPlanShardsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(100)
		hi := lo + 1 + rng.Intn(2000)
		k := 1 + rng.Intn(12)
		minW := 1 + rng.Intn(80)
		var centers []int
		for i, n := 0, rng.Intn(50); i < n; i++ {
			centers = append(centers, lo+rng.Intn(hi-lo))
		}
		p := PlanShards(lo, hi, k, minW, centers)
		if p.K() < 1 || p.K() > k {
			t.Fatalf("trial %d: K=%d outside [1,%d]", trial, p.K(), k)
		}
		if p.Spans[0].Lo != lo || p.Spans[p.K()-1].Hi != hi {
			t.Fatalf("trial %d: spans %v do not cover [%d,%d)", trial, p.Spans, lo, hi)
		}
		for i, sp := range p.Spans {
			if sp.Hi <= sp.Lo {
				t.Fatalf("trial %d: empty span %v", trial, sp)
			}
			if p.K() > 1 && sp.Hi-sp.Lo < minW {
				t.Fatalf("trial %d: span %v narrower than minWidth %d", trial, sp, minW)
			}
			if i > 0 && sp.Lo != p.Spans[i-1].Hi {
				t.Fatalf("trial %d: gap or overlap at span %d: %v", trial, i, p.Spans)
			}
		}
		// ShardOf agrees with the span list, including clamping.
		for x := lo - 5; x < hi+5; x += 1 + rng.Intn(37) {
			s := p.ShardOf(x)
			if s < 0 || s >= p.K() {
				t.Fatalf("trial %d: ShardOf(%d) = %d out of range", trial, x, s)
			}
			if x >= lo && x < hi && (x < p.Spans[s].Lo || x >= p.Spans[s].Hi) {
				t.Fatalf("trial %d: ShardOf(%d) = %d but span is %v", trial, x, s, p.Spans[s])
			}
		}
	}
}

// TestPlanShardsQuantiles: with a heavily skewed center distribution,
// quantile boundaries must put comparable work counts in each shard.
func TestPlanShardsQuantiles(t *testing.T) {
	centers := make([]int, 1000)
	for i := range centers {
		// 90% of the work in the left tenth of the die.
		if i < 900 {
			centers[i] = i % 100
		} else {
			centers[i] = 100 + (i%9)*100
		}
	}
	p := PlanShards(0, 1000, 4, 10, centers)
	if p.K() != 4 {
		t.Fatalf("K = %d, want 4", p.K())
	}
	counts := make([]int, 4)
	for _, c := range centers {
		counts[p.ShardOf(c)]++
	}
	for s, n := range counts {
		if n < 150 || n > 400 {
			t.Fatalf("shard %d holds %d of 1000 centers (spans %v); quantile balance failed",
				s, n, p.Spans)
		}
	}
}

// clampX mirrors the schedule builder's clamping of a claim to the
// plan's x-extent (the off-die part covers no mutable state).
func clampX(cl Claim, lo, hi int) Claim {
	if cl.X0 < lo {
		cl.X0 = lo
	}
	if cl.X1 > hi {
		cl.X1 = hi
	}
	return cl
}

// TestShardScheduleOrdersConflicts is the byte-identity invariant: for
// every conflicting (overlapping-claim) pair i < j, the schedule must
// guarantee serial relative order — same-shard interior (one worker, in
// round order), both seam (the seam thread, in round order), or a
// dependency edge on the later cell covering the earlier one. Interior
// claims of different shards must never overlap at all (they run
// concurrently with no ordering).
func TestShardScheduleOrdersConflicts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		dieW := 300 + rng.Intn(500)
		claims := randClaims(rng, 120, dieW, 60)
		p := PlanShards(0, dieW, 1+rng.Intn(8), 20, nil)
		s := BuildShardSchedule(p, claims)
		var edges int64
		for j := range claims {
			b := clampX(claims[j], 0, dieW)
			if s.NeedSeam[j] >= 0 {
				edges++
			}
			if s.Shard[j] == SeamShard {
				for k := 0; k < s.K(); k++ {
					if s.NeedShard(j, k) >= 0 {
						edges++
					}
				}
			}
			for i := 0; i < j; i++ {
				a := clampX(claims[i], 0, dieW)
				if !a.Overlaps(b) {
					continue
				}
				si, sj := s.Shard[i], s.Shard[j]
				switch {
				case si == sj:
					// Same shard or both seam: one thread, round order.
				case sj == SeamShard:
					if got := s.NeedShard(j, int(si)); got < int32(i) {
						t.Fatalf("trial %d: seam claim %d conflicts with interior %d (shard %d) but NeedShard=%d",
							trial, j, i, si, got)
					}
				case si == SeamShard:
					if got := s.NeedSeam[j]; got < int32(i) {
						t.Fatalf("trial %d: interior claim %d conflicts with seam %d but NeedSeam=%d",
							trial, j, i, got)
					}
				default:
					t.Fatalf("trial %d: interior claims %d (shard %d) and %d (shard %d) overlap: %v vs %v",
						trial, i, si, j, sj, a, b)
				}
			}
		}
		ctr := s.Counters()
		if ctr.Interior+ctr.Seam != int64(len(claims)) {
			t.Fatalf("trial %d: counters do not partition the claims: %+v", trial, ctr)
		}
		// Every recorded dependency is one sync edge; the counter must
		// match what the schedule exposes.
		if ctr.SyncEdges != edges {
			t.Fatalf("trial %d: SyncEdges=%d but schedule exposes %d", trial, ctr.SyncEdges, edges)
		}
	}
}

// TestShardScheduleDepsPointEarlier: every dependency edge must point at
// a strictly earlier round index of the right kind — that is what makes
// the cross-thread waits deadlock-free.
func TestShardScheduleDepsPointEarlier(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		dieW := 400 + rng.Intn(400)
		claims := randClaims(rng, 150, dieW, 50)
		p := PlanShards(0, dieW, 4, 20, nil)
		s := BuildShardSchedule(p, claims)
		for j := range claims {
			if need := s.NeedSeam[j]; need >= 0 {
				if s.Shard[j] == SeamShard {
					t.Fatalf("trial %d: seam cell %d has a NeedSeam edge", trial, j)
				}
				if int(need) >= j || s.Shard[need] != SeamShard {
					t.Fatalf("trial %d: cell %d NeedSeam=%d is not an earlier seam cell", trial, j, need)
				}
			}
			if s.Shard[j] != SeamShard {
				continue
			}
			for k := 0; k < s.K(); k++ {
				if need := s.NeedShard(j, k); need >= 0 {
					if int(need) >= j || s.Shard[need] != int32(k) {
						t.Fatalf("trial %d: seam cell %d NeedShard(%d)=%d is not an earlier shard-%d cell",
							trial, j, k, need, k)
					}
				}
			}
		}
	}
}

// TestShardScheduleClampsOffDie: claims hanging off the die edge stay
// interior to the edge shard; fully off-die claims go to the seam
// thread with no dependencies.
func TestShardScheduleClampsOffDie(t *testing.T) {
	p := PlanShards(0, 100, 2, 10, nil)
	s := BuildShardSchedule(p, []Claim{
		{X0: -30, X1: 5, Y0: 0, Y1: 2},
		{X0: 95, X1: 140, Y0: 10, Y1: 12},
		{X0: 200, X1: 240, Y0: 0, Y1: 2},
	})
	if s.Shard[0] != 0 {
		t.Fatalf("left-overhang claim classified to %d, want shard 0", s.Shard[0])
	}
	if s.Shard[1] != 1 {
		t.Fatalf("right-overhang claim classified to %d, want shard 1", s.Shard[1])
	}
	if s.Shard[2] != SeamShard {
		t.Fatalf("fully off-die claim classified to %d, want SeamShard", s.Shard[2])
	}
	for k := 0; k < 2; k++ {
		if need := s.NeedShard(2, k); need != -1 {
			t.Fatalf("off-die seam claim has NeedShard(%d)=%d, want -1", k, need)
		}
	}
}
