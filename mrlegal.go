// Package mrlegal is a legalizer for standard-cell placements with
// multiple-row height cells, reproducing "Legalization Algorithm for
// Multiple-Row Height Standard Cell Design" (Chow, Pui, Young, DAC 2016).
//
// The core operation is Multi-row Local Legalization (MLL): given a
// target cell and a desired position, the legalizer extracts a local
// region, enumerates every valid insertion point — a combination of gaps
// across vertically consecutive row segments — with a scanline algorithm,
// scores each insertion point by the total cell displacement it would
// cause, and realizes the best one by pushing neighboring cells aside.
// Because every intermediate state is legal, MLL also serves as the
// instant-legalization primitive for detailed placement moves, gate
// sizing and buffer insertion.
//
// # Quick start
//
//	d := mrlegal.NewDesign("chip", 200, 2000) // site = 0.2µm × 2.0µm
//	d.AddUniformRows(64, mrlegal.Span{Lo: 0, Hi: 400})
//	inv := d.AddMaster(mrlegal.Master{Name: "INV", Width: 2, Height: 1})
//	ff := d.AddMaster(mrlegal.Master{Name: "DFF", Width: 4, Height: 2})
//	a := d.AddCell("u1", inv, 10.3, 7.8) // input (global placement) position
//	b := d.AddCell("u2", ff, 11.1, 7.2)
//	_ = a
//	_ = b
//
//	l, err := mrlegal.NewLegalizer(d, mrlegal.DefaultConfig())
//	if err != nil { ... }
//	if err := l.Legalize(); err != nil { ... }
//	// d now holds a legal placement; inspect d.Cells[i].X/Y.
//
// The packages under internal/ implement the substrates: the segment
// bookkeeping, the scanline enumeration and evaluation, an ILP reference
// solver, baseline legalizers (Abacus, greedy), a quadratic global placer
// and the synthetic ISPD-2015-shaped benchmark generator used by the
// experiment harness (cmd/mrbench).
package mrlegal

import (
	"io"

	"mrlegal/internal/bengen"
	"mrlegal/internal/constraint"
	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/detailed"
	"mrlegal/internal/geom"
	"mrlegal/internal/gp"
	"mrlegal/internal/jobq"
	"mrlegal/internal/netlist"
	"mrlegal/internal/obs"
	"mrlegal/internal/render"
	"mrlegal/internal/service"
	"mrlegal/internal/verify"
)

// Geometry types (site-unit coordinate system; see §2.1.1 of the paper).
type (
	// Point is a location in site units.
	Point = geom.Point
	// Rect is a half-open rectangle in site units.
	Rect = geom.Rect
	// Span is a half-open 1-D interval in site units.
	Span = geom.Span
)

// Design model types.
type (
	// Design is a complete placement instance.
	Design = design.Design
	// Master is a library cell.
	Master = design.Master
	// Cell is a cell instance.
	Cell = design.Cell
	// CellID identifies a cell within a design.
	CellID = design.CellID
	// Rail is a power rail kind (VSS or VDD).
	Rail = design.Rail
	// Orient is a cell orientation (N or FS).
	Orient = design.Orient
	// Row is one placement row.
	Row = design.Row
)

// Rail and orientation constants.
const (
	VSS = design.VSS
	VDD = design.VDD
	N   = design.N
	FS  = design.FS
	// NoCell is the sentinel "no cell" ID.
	NoCell = design.NoCell
)

// Netlist types.
type (
	// Netlist is the connectivity of a design.
	Netlist = netlist.Netlist
	// Net is one net.
	Net = netlist.Net
	// Pin is one net pin.
	Pin = netlist.Pin
)

// Legalizer types.
type (
	// Config tunes the legalizer; start from DefaultConfig.
	Config = core.Config
	// Legalizer runs full legalization (Algorithm 1) and incremental MLL
	// operations on one design.
	Legalizer = core.Legalizer
	// Stats counts legalizer activity.
	Stats = core.Stats
	// LocalSolver is the pluggable local-problem solver interface (the
	// ILP baseline in internal/ilplegal implements it).
	LocalSolver = core.LocalSolver
)

// Robustness types (see docs/ROBUSTNESS.md).
type (
	// Report describes a LegalizeBestEffort run: which cells placed,
	// which failed and why, and displacement statistics.
	Report = core.Report
	// CellFailure names one cell that could not be legalized and the
	// reason, classified by the error taxonomy below.
	CellFailure = core.CellFailure
	// CellError wraps a failure with the cell it concerns; unwraps to
	// one of the Err* sentinels for errors.Is.
	CellError = core.CellError
	// FaultInjector is the hook interface used by chaos tests to inject
	// deterministic faults into the legalizer's mutation paths (see
	// internal/faultinject for the standard implementation).
	FaultInjector = core.FaultInjector
)

// Error taxonomy. Every per-cell failure recorded in a Report, and every
// error returned by the Try* mutation methods, unwraps (errors.Is) to one
// of these sentinels.
var (
	ErrCellTooWide      = core.ErrCellTooWide
	ErrNoInsertionPoint = core.ErrNoInsertionPoint
	ErrAuditFailed      = core.ErrAuditFailed
	ErrCanceled         = core.ErrCanceled
	ErrFixedCell        = core.ErrFixedCell
	ErrInvalidWidth     = core.ErrInvalidWidth
	ErrInvalidTarget    = core.ErrInvalidTarget
	ErrPanicked         = core.ErrPanicked
	ErrRoundsExhausted  = core.ErrRoundsExhausted
	ErrRollbackFailed   = core.ErrRollbackFailed
	ErrNotLegal         = core.ErrNotLegal
	ErrSessionClosed    = core.ErrSessionClosed
	ErrUnknownCell      = core.ErrUnknownCell
)

// Incremental (ECO) legalization sessions (see docs/SERVICE.md §8 and
// docs/PERFORMANCE.md §9): a Session keeps a design legal across batches
// of cell-level deltas, relegalizing only the perturbed neighborhood.
type (
	// Session is a long-lived incremental legalization context over one
	// legalizer; open with NewSession after a full Legalize.
	Session = core.Session
	// Delta is one cell-level edit: a move, resize, insert or delete.
	Delta = core.Delta
	// DeltaOp selects the kind of edit a Delta performs.
	DeltaOp = core.DeltaOp
	// DeltaResult is the realized outcome of one delta.
	DeltaResult = core.DeltaResult
	// DeltaReport summarizes one committed batch: results, dirty-cell
	// count and retries.
	DeltaReport = core.DeltaReport
	// SessionStats is a session's lifetime activity counters.
	SessionStats = core.SessionStats
)

// Delta operations.
const (
	DeltaMove   = core.DeltaMove
	DeltaResize = core.DeltaResize
	DeltaInsert = core.DeltaInsert
	DeltaDelete = core.DeltaDelete
)

// NewSession opens an incremental session on a legalizer whose design is
// fully legal (run Legalize first). Batches applied through
// Session.ApplyDelta are atomic: on failure the design returns to its
// prior legal state.
func NewSession(l *Legalizer) (*Session, error) { return core.NewSession(l) }

// Observability types (see docs/OBSERVABILITY.md). Attach an Observer via
// Config.Obs to collect metrics and per-cell trace events; a nil observer
// keeps the engine on its allocation-free fast path.
type (
	// Observer bundles a metric registry and an optional JSONL trace
	// sink.
	Observer = obs.Observer
	// ObserverOptions tunes NewObserver.
	ObserverOptions = obs.Options
	// CellEvent is one per-cell trace entry.
	CellEvent = obs.CellEvent
	// MetricsRegistry is the race-safe counter/gauge/histogram registry
	// behind an Observer; it renders itself in the Prometheus text
	// exposition format via WritePrometheus.
	MetricsRegistry = obs.Registry
)

// NewObserver returns an observability layer ready to attach to
// Config.Obs.
func NewObserver(opt ObserverOptions) *Observer { return obs.New(opt) }

// ReadTrace decodes a JSONL placement trace (the -trace-out format) back
// into events.
func ReadTrace(r io.Reader) ([]CellEvent, error) { return obs.ReadTrace(r) }

// Job-server types (see docs/SERVICE.md). The server wraps
// LegalizeBestEffort in an HTTP/JSON API with bounded admission,
// per-job deadlines, panic isolation and graceful shutdown — the
// cmd/mrserve binary is a thin flag wrapper around NewServer.
type (
	// Server is the legalization job server.
	Server = service.Server
	// ServerConfig tunes NewServer; its Queue field bounds admission.
	ServerConfig = service.Config
	// ServerLimits bounds what one submission may ask for.
	ServerLimits = service.Limits
	// JobQueueConfig tunes the bounded job queue and worker pool.
	JobQueueConfig = jobq.Config
	// JobState is a job lifecycle state (queued, running, succeeded,
	// failed, canceled).
	JobState = jobq.State
	// JobSnapshot is a point-in-time view of one job.
	JobSnapshot = jobq.Snapshot
)

// NewServer builds a legalization job server (not yet listening; call
// Start or Run).
func NewServer(cfg ServerConfig) (*Server, error) { return service.New(cfg) }

// ErrorCode maps any error surfaced by the engine, the job queue or the
// server to its stable machine-readable API code (docs/SERVICE.md lists
// the taxonomy). Unknown errors map to "internal"; nil maps to "".
func ErrorCode(err error) string { return service.ErrorCode(err) }

// Constraint-plugin types (see docs/CONSTRAINTS.md). A ConstraintSet
// attached to Config.Constraints threads three hooks through the MLL
// pipeline: a feasibility filter on candidate positions, an admissible
// additive term for the best-first lower bound (so pruning stays exact),
// and a post-placement checker folded into Verify. A nil or empty set
// keeps the engine byte-identical to an unconstrained run.
type (
	// Constraint is one placement-rule plugin.
	Constraint = constraint.Constraint
	// ConstraintSet is a validated, composed collection of plugins.
	ConstraintSet = constraint.Set
)

// NewConstraintSet validates and composes plugins into a set for
// Config.Constraints. An empty argument list yields an empty set (no-op).
func NewConstraintSet(cons ...Constraint) (*ConstraintSet, error) {
	return constraint.NewSet(cons...)
}

// NewFence builds a fence-region plugin: movable cells of height ≥ minH
// must be placed entirely inside rect; shorter cells are unrestricted.
func NewFence(rect Rect, minH int) (Constraint, error) {
	f, err := constraint.NewFence(rect, minH)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// NewSpacing builds a minimum-edge-spacing plugin: two x-adjacent movable
// cells of width ≥ minW on a shared row must be separated by at least gap
// free sites.
func NewSpacing(minW, gap int) (Constraint, error) {
	s, err := constraint.NewSpacing(minW, gap)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NewTPL builds a triple-patterning color-compatibility plugin: x-adjacent
// movable cells whose masters hash to the same mask color need sep free
// sites between them.
func NewTPL(sep int) (Constraint, error) {
	t, err := constraint.NewTPL(sep)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ParseConstraints parses the -constraints flag syntax — ";"-separated
// plugin specs like "fence:x0=0,y0=0,x1=40,y1=8,minh=2;spacing:minw=2,gap=1;
// tpl:sep=1" — into a set. Empty input yields (nil, nil).
func ParseConstraints(s string) (*ConstraintSet, error) {
	return constraint.Parse(s)
}

// Verification types.
type (
	// Violation is one legality violation.
	Violation = verify.Violation
	// VerifyOptions selects which constraints to check.
	VerifyOptions = verify.Options
)

// NewDesign returns an empty design with the given physical site
// dimensions in database units (for example nanometres).
func NewDesign(name string, siteW, siteH int64) *Design {
	return design.New(name, siteW, siteH)
}

// NewNetlist returns an empty netlist.
func NewNetlist() *Netlist { return netlist.New() }

// DefaultConfig returns the paper's parameter settings (Rx=30, Ry=5,
// power alignment on, approximate insertion-point evaluation).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewLegalizer builds the row/segment bookkeeping for d and returns a
// legalizer. Cells already placed in d are honored; fixed cells act as
// blockages.
func NewLegalizer(d *Design, cfg Config) (*Legalizer, error) {
	return core.NewLegalizer(d, cfg)
}

// Verify checks the §2 legality constraints and returns up to limit
// violations (limit <= 0 means all).
func Verify(d *Design, opt VerifyOptions, limit int) []Violation {
	return verify.Check(d, opt, limit)
}

// IsLegal reports whether d satisfies the legality constraints.
func IsLegal(d *Design, opt VerifyOptions) bool {
	return verify.Legal(d, opt)
}

// GlobalPlaceConfig tunes the built-in quadratic global placer.
type GlobalPlaceConfig = gp.Config

// GlobalPlace computes input positions (Cell.GX/GY) for every movable
// cell by quadratic placement with spreading — a convenience for users
// who start from a netlist rather than an existing global placement.
func GlobalPlace(d *Design, nl *Netlist, cfg GlobalPlaceConfig) gp.Stats {
	return gp.Place(d, nl, cfg)
}

// DetailedPlaceConfig tunes the wirelength-driven detailed placer built
// on instant legalization (median moves through MoveCell).
type DetailedPlaceConfig = detailed.Config

// DetailedPlaceStats reports a DetailedPlace run.
type DetailedPlaceStats = detailed.Stats

// DetailedPlace improves HPWL with optimal-region moves, each executed
// through MLL so every intermediate placement is legal — the detailed
// placement application of the paper's §1.
func DetailedPlace(l *Legalizer, nl *Netlist, cfg DetailedPlaceConfig) DetailedPlaceStats {
	return detailed.Optimize(l, nl, cfg)
}

// SwapStats reports a DetailedPlaceSwaps run.
type SwapStats = detailed.SwapStats

// DetailedPlaceSwaps runs one pass of equal-footprint cell swapping — the
// multi-row-safe special case of cell reordering (see internal/detailed).
// maxPairs caps the attempted pairs (0 = unlimited).
func DetailedPlaceSwaps(l *Legalizer, nl *Netlist, maxPairs int) SwapStats {
	return detailed.OptimizeSwaps(l, nl, maxPairs)
}

// BenchmarkSpec describes a synthetic ISPD-2015-shaped benchmark.
type BenchmarkSpec = bengen.Spec

// Benchmark is a generated design plus netlist.
type Benchmark = bengen.Benchmark

// GenerateBenchmark builds a synthetic benchmark deterministically.
func GenerateBenchmark(spec BenchmarkSpec) *Benchmark {
	return bengen.Generate(spec)
}

// Table1Specs returns the paper's 20 benchmark specs scaled down by the
// given factor.
func Table1Specs(scale int) []BenchmarkSpec {
	return bengen.Table1Specs(scale)
}

// RenderOptions controls RenderSVG.
type RenderOptions = render.Options

// RenderSVG draws the design as an SVG document: rows, blockages, cells
// colored by row height, optionally with displacement vectors from the
// input positions.
func RenderSVG(w io.Writer, d *Design, opt RenderOptions) error {
	return render.SVG(w, d, opt)
}
