// Package faultinject provides a deterministic fault injector for chaos
// testing the transactional legalization engine (internal/core). All
// triggers are counter-based — fail every Nth grid insert, panic at every
// Nth realization commit, violate every Nth audit — so chaos runs replay
// bit-identically and shrink to minimal reproducers.
//
// The zero value injects nothing. Wire an Injector through Config.Faults:
//
//	cfg := core.DefaultConfig()
//	inj := &faultinject.Injector{FailInsertEvery: 3}
//	cfg.Faults = inj
//
// Injection fires only on the engine's primary mutation paths, never
// during transaction rollback: the rollback machinery is the recovery
// mechanism under test and must observe real grid behavior.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mrlegal/internal/design"
)

// ErrInjected is the sentinel wrapped by every injected insert failure,
// so tests can tell injected faults from real grid errors.
var ErrInjected = errors.New("faultinject: injected fault")

// Injector implements core.FaultInjector with deterministic counters.
// A threshold of 0 disables that fault class.
type Injector struct {
	// FailInsertEvery makes every Nth occupancy-grid insert fail.
	FailInsertEvery int
	// PanicRealizeEvery panics at every Nth realization commit, at the
	// instant the target is marked placed but not yet in the grid.
	PanicRealizeEvery int
	// FailAuditEvery reports an injected violation at every Nth mid-run
	// invariant audit.
	FailAuditEvery int

	// Counters of hook invocations, exported for test assertions.
	Inserts  int
	Realizes int
	Audits   int

	// Counters of actually injected faults.
	InjectedInsertFailures int
	InjectedPanics         int
	InjectedAuditFailures  int
}

// OnGridInsert implements core.FaultInjector.
func (in *Injector) OnGridInsert(id design.CellID) error {
	in.Inserts++
	if in.FailInsertEvery > 0 && in.Inserts%in.FailInsertEvery == 0 {
		in.InjectedInsertFailures++
		return fmt.Errorf("%w: grid insert #%d of cell %d", ErrInjected, in.Inserts, id)
	}
	return nil
}

// OnRealize implements core.FaultInjector.
func (in *Injector) OnRealize(id design.CellID) {
	in.Realizes++
	if in.PanicRealizeEvery > 0 && in.Realizes%in.PanicRealizeEvery == 0 {
		in.InjectedPanics++
		panic(fmt.Sprintf("faultinject: injected panic at realize commit #%d (cell %d)", in.Realizes, id))
	}
}

// OnAudit implements core.FaultInjector.
func (in *Injector) OnAudit() bool {
	in.Audits++
	if in.FailAuditEvery > 0 && in.Audits%in.FailAuditEvery == 0 {
		in.InjectedAuditFailures++
		return true
	}
	return false
}

// JobInjector injects faults into a job server's worker pool
// (internal/jobq + internal/service) for chaos testing. Unlike Injector
// it is safe for concurrent use: jobs run on many workers at once, so
// every trigger counter is atomic. Thresholds of 0 disable a fault
// class; the zero value injects nothing.
//
// Two fault classes target the worker itself, not the engine:
//
//   - PanicStartEvery panics inside the job runner as the job begins —
//     the "worker killed mid-job" scenario. The queue's panic isolation
//     must record a failed job and keep the worker alive.
//   - FailFinishEvery injects an error into a job that ran to
//     completion — a mid-job infrastructure fault (lost result, storage
//     error). The job must fail cleanly with the injected error.
//
// CellFaultEvery additionally arms a fresh per-job engine Injector
// (FailInsertEvery) via NewCellInjector, exercising the transactional
// rollback path inside jobs. Because every job gets its own counter
// state, a job's outcome is reproducible by a direct library call with
// an identically configured injector — chaos tests use that to assert
// byte-identical placements under injected engine faults.
type JobInjector struct {
	// PanicStartEvery panics at every Nth job start.
	PanicStartEvery int
	// FailFinishEvery fails every Nth job completion with ErrInjected.
	FailFinishEvery int
	// CellFaultEvery, when positive, is the FailInsertEvery threshold of
	// the per-job engine injector returned by NewCellInjector.
	CellFaultEvery int

	starts   atomic.Int64
	finishes atomic.Int64
	panics   atomic.Int64
}

// OnJobStart runs as a job begins executing. It may panic (the injected
// worker kill); the caller's panic isolation is the mechanism under
// test.
func (in *JobInjector) OnJobStart(id string) {
	n := in.starts.Add(1)
	if in.PanicStartEvery > 0 && n%int64(in.PanicStartEvery) == 0 {
		in.panics.Add(1)
		panic(fmt.Sprintf("faultinject: injected worker kill at job start #%d (%s)", n, id))
	}
}

// OnJobFinish runs after a job's engine work completed. A non-nil
// return must fail the job.
func (in *JobInjector) OnJobFinish(id string) error {
	n := in.finishes.Add(1)
	if in.FailFinishEvery > 0 && n%int64(in.FailFinishEvery) == 0 {
		return fmt.Errorf("%w: mid-job fault at completion #%d (%s)", ErrInjected, n, id)
	}
	return nil
}

// NewCellInjector returns the per-job engine injector (nil when
// CellFaultEvery is 0). Each call returns fresh counter state, so the
// job's engine-level fault schedule is deterministic in isolation.
func (in *JobInjector) NewCellInjector() *Injector {
	if in.CellFaultEvery <= 0 {
		return nil
	}
	return &Injector{FailInsertEvery: in.CellFaultEvery}
}

// Panics exposes the injected-panic count for test assertions.
func (in *JobInjector) Panics() int64 { return in.panics.Load() }
