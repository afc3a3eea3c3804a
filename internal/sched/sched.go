// Package sched provides the spatial shard scheduler of the parallel
// legalization driver (shard.go).
//
// The driver processes the cells of one Algorithm-1 round in a fixed
// seeded order. Each cell owns a 2-D claim — its MLL window (row span ×
// x span) united with its snapped direct-placement footprint — and the
// paper's locality argument (§2.1.3) guarantees that an MLL call reads
// and mutates design and grid state only inside that claim. Two cells
// whose claims are disjoint therefore have independent local problems
// and commute. The shard schedule partitions the die into column spans
// so that most claims fall inside one span, and orders every conflicting
// pair that straddles threads, which keeps a sharded run byte-identical
// to the serial one.
package sched

// Claim is a half-open 2-D reservation: sites [X0,X1) × rows [Y0,Y1).
type Claim struct {
	X0, X1 int // site span
	Y0, Y1 int // row span
}

// Overlaps reports whether two claims intersect.
func (c Claim) Overlaps(o Claim) bool {
	return c.X0 < o.X1 && o.X0 < c.X1 && c.Y0 < o.Y1 && o.Y0 < c.Y1
}

// Empty reports whether the claim covers no area.
func (c Claim) Empty() bool { return c.X1 <= c.X0 || c.Y1 <= c.Y0 }

// Counters holds per-cell claim-scheduling activity. No driver schedules
// claims cell by cell, so every field reads zero; the type stays for
// callers that read it.
type Counters struct {
	Dispatched  int64 // claims handed to workers (includes re-dispatches)
	Deferred    int64 // eligibility checks that found a conflicting earlier claim
	Invalidated int64 // dispatched claims discarded by a generation bump
	Batches     int64 // batched board scans
	Batched     int64 // claims dispatched through batched scans
}
