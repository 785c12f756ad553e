package cobra

import (
	"io"
	"runtime"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polyio"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/relation"
	"github.com/cobra-prov/cobra/internal/sql"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// Core algebraic types.
type (
	// Var identifies an interned provenance variable.
	Var = polynomial.Var
	// Names is the variable namespace shared by polynomials, trees and
	// assignments.
	Names = polynomial.Names
	// Term is a variable with an exponent.
	Term = polynomial.Term
	// Monomial is a coefficient times a product of terms.
	Monomial = polynomial.Monomial
	// Polynomial is a canonical provenance polynomial.
	Polynomial = polynomial.Polynomial
	// Set is an ordered collection of named provenance polynomials (one
	// per query-output group).
	Set = polynomial.Set
	// ShardedSet is a Set split into fixed-size shards that spill to disk
	// past a memory budget — the out-of-core representation every pipeline
	// stage streams through. OpenDataset and CaptureDataset build one when
	// Options.MaxResidentMonomials is set.
	ShardedSet = polynomial.ShardedSet
	// SetSource is the streaming view every pipeline stage consumes: keyed
	// polynomials iterated shard-at-a-time, implemented by both *Set and
	// *ShardedSet, so each stage works in-memory and out-of-core alike.
	SetSource = polynomial.SetSource

	// Tree is an abstraction tree over provenance variables.
	Tree = abstraction.Tree
	// NodeID identifies a node within a Tree.
	NodeID = abstraction.NodeID
	// Cut is an abstraction: an antichain separating root from leaves.
	Cut = abstraction.Cut
	// Forest is an ordered list of trees over disjoint variables.
	Forest = abstraction.Forest

	// Result describes a chosen abstraction and its effect.
	Result = core.Result
	// InfeasibleError reports an unreachable bound.
	InfeasibleError = core.InfeasibleError

	// Assignment is a sparse valuation of provenance variables.
	Assignment = valuation.Assignment
	// Program is a compiled polynomial set for fast repeated valuation.
	Program = valuation.Program
	// Accuracy summarizes compressed-vs-full result deviation.
	Accuracy = valuation.Accuracy

	// Catalog names the base relations available to SQL queries.
	Catalog = engine.Catalog
	// Relation is an in-memory annotated table.
	Relation = relation.Relation
	// Schema describes relation columns.
	Schema = relation.Schema
	// Column is one attribute of a schema.
	Column = relation.Column
	// Value is a dynamically typed cell value (possibly symbolic): two
	// words, NULL when zero, read through Kind() and I(), F(), S(), B(),
	// P() and compared with Equal or Compare, not ==.
	Value = relation.Value
	// VarSpec derives provenance variable names from row values.
	VarSpec = provenance.VarSpec
	// CommutationReport is the outcome of CheckCommutation.
	CommutationReport = provenance.CommutationReport
)

// ErrInfeasible is wrapped by InfeasibleError; test with errors.Is.
var ErrInfeasible = core.ErrInfeasible

// Options tunes how the engine uses the machine.
type Options struct {
	// Workers caps the number of goroutines the compression, valuation and
	// provenance-capture hot paths may use. Workers <= 1 (the zero value)
	// keeps every code path sequential. Parallel runs shard only
	// deterministic work — signature indexing, cut application,
	// speculative per-tree re-optimization, chunked scenario evaluation,
	// tuple-level instrumentation (AnnotateTuples: 1.4× at 2 workers on
	// TPC-H lineitem at SF 0.05), and the rendering of captured result rows
	// into keys and polynomials — so results are bit-identical for every
	// value of Workers. Two things Workers does not shard, because sharding
	// them measured slower: a SQL query always runs on the engine's one
	// sequential executor, and ParameterizeColumn is one sequential pass.
	// Set Workers to AutoWorkers() to saturate the machine.
	Workers int

	// MaxResidentMonomials bounds the monomials a ShardedSet keeps in
	// memory at once: shards beyond the budget spill to temp files and
	// stream back one at a time through the out-of-core pipeline. > 0
	// selects the out-of-core representation: CaptureDataset streams into
	// a ShardedSet under this budget, and OpenDataset shards any source
	// that is not already a ShardedSet (an indexed file is decoded into one
	// whatever the budget). <= 0 (the zero value) disables spilling and
	// keeps an in-memory source in memory. The bound is per sharded set and
	// holds as long as no single polynomial exceeds half the budget (whole
	// polynomials are never split).
	MaxResidentMonomials int

	// SpillDir is where out-of-core state lives ("" = os.TempDir()): each
	// ShardedSet creates one private subdirectory there for its spill
	// files — an evicted Dataset's included — and removes it on Close.
	SpillDir string
}

// shardOptions translates the facade knobs to the storage layer's.
func (o Options) shardOptions() polynomial.ShardOptions {
	return polynomial.ShardOptions{MaxResidentMonomials: o.MaxResidentMonomials, SpillDir: o.SpillDir}
}

// AutoWorkers returns the worker count that saturates the machine
// (runtime.GOMAXPROCS).
func AutoWorkers() int { return runtime.GOMAXPROCS(0) }

// NewRelation creates an empty in-memory relation with the given columns.
func NewRelation(name string, cols ...Column) *Relation {
	return relation.NewRelation(name, relation.NewSchema(cols...))
}

// Int wraps an integer cell value.
func Int(i int64) Value { return relation.Int(i) }

// Float wraps a floating-point cell value.
func Float(f float64) Value { return relation.Float(f) }

// Str wraps a string cell value.
func Str(s string) Value { return relation.Str(s) }

// Bool wraps a boolean cell value.
func Bool(b bool) Value { return relation.Bool(b) }

// Null returns the SQL NULL cell value.
func Null() Value { return relation.Null() }

// PolyValue wraps a symbolic (polynomial) cell value.
func PolyValue(p Polynomial) Value { return relation.Poly(p) }

// NewNames returns an empty variable namespace.
func NewNames() *Names { return polynomial.NewNames() }

// NewSet returns an empty polynomial set over names (fresh if nil).
func NewSet(names *Names) *Set { return polynomial.NewSet(names) }

// ParsePolynomial parses the textual polynomial format, e.g.
// "208.8*p1*m1 + 240*p1*m3".
func ParsePolynomial(input string, names *Names) (Polynomial, error) {
	return polynomial.Parse(input, names)
}

// MustParsePolynomial is ParsePolynomial panicking on error.
func MustParsePolynomial(input string, names *Names) Polynomial {
	return polynomial.MustParse(input, names)
}

// Substitute replaces v in p by the polynomial q (powers expand), e.g. to
// refine a meta-variable back into a combination of its leaves.
func Substitute(p Polynomial, v Var, q Polynomial) Polynomial {
	return polynomial.Substitute(p, v, q)
}

// NewTree creates an abstraction tree with the given root name.
func NewTree(rootName string, names *Names) *Tree {
	return abstraction.NewTree(rootName, names)
}

// TreeFromPaths builds a tree from root-to-leaf paths.
func TreeFromPaths(rootName string, names *Names, paths ...[]string) (*Tree, error) {
	return abstraction.FromPaths(rootName, names, paths...)
}

// TreeFromJSON decodes a tree from its nested JSON form.
func TreeFromJSON(data []byte, names *Names) (*Tree, error) {
	return abstraction.TreeFromJSON(data, names)
}

// Apply applies cuts to an in-memory set, returning the compressed set,
// using opts.Workers goroutines; the compressed set is bit-identical for
// every worker count (merged coefficients follow the package
// documentation's "Summation order"). To apply cuts to an out-of-core set,
// open it as a Dataset and use Dataset.Apply.
func Apply(set *Set, opts Options, cuts ...Cut) *Set {
	return abstraction.Apply(set, opts.Workers, cuts...)
}

// CompressGreedy runs the greedy baseline on a single tree.
func CompressGreedy(set *Set, tree *Tree, bound int) (*Result, error) {
	return core.Greedy(set, tree, bound)
}

// CompressExhaustive enumerates all cuts of a small tree (testing oracle).
func CompressExhaustive(set *Set, tree *Tree, bound int) (*Result, error) {
	return core.Exhaustive(set, tree, bound)
}

// Frontier sweeps: one DP run, many bounds. Hypothetical reasoning in
// practice means sliding a size bound interactively; a frontier is the
// complete bound→optimum curve (Dataset.Frontier, Dataset.ForestFrontier),
// and Dataset.Sweep answers an arbitrary batch of bounds from it without
// re-running the DP per bound.

// FrontierPoint is one point of the expressiveness/size tradeoff curve.
type FrontierPoint = core.FrontierPoint

// ForestFrontierPoint is one point of the forest-level tradeoff curve:
// the minimal joint compressed size achievable with exactly NumMeta cut
// nodes across the forest, with one cut per tree in forest order.
type ForestFrontierPoint = core.ForestFrontierPoint

// SweepAnswer is Dataset.Sweep's answer for one requested bound: exactly
// one of Result (what per-bound compression would return) and Err (an
// *InfeasibleError for unreachable bounds) is set.
type SweepAnswer = core.SweepAnswer

// CrossTreeError reports a monomial coupling two trees of a forest — the
// case in which no exact forest-level frontier exists (Dataset.Compress
// uses coordinate descent there); test with errors.As.
type CrossTreeError = core.CrossTreeError

// BestForBound picks the frontier point a given bound admits: the maximal
// feasible number of meta-variables, ties broken toward the smallest
// MinSize — the optimizer's own choice, deterministically.
func BestForBound(frontier []FrontierPoint, bound int) (FrontierPoint, bool) {
	return core.BestForBound(frontier, bound)
}

// NewAssignment returns an empty valuation over names (unassigned
// variables evaluate to 1).
func NewAssignment(names *Names) *Assignment { return valuation.New(names) }

// Induced computes meta-variable defaults: the average of each group's
// leaf values under base (the demo's Figure-5 defaults). Only a group base
// assigns a leaf of gets an entry; every other meta-variable is absent and
// so reads as 1, its average.
func Induced(base *Assignment, cuts ...Cut) *Assignment {
	return valuation.Induced(base, cuts...)
}

// EvalSet evaluates every polynomial of the set under the assignment.
func EvalSet(set *Set, a *Assignment) []float64 { return valuation.EvalSet(set, a) }

// Compile packs a set for fast repeated valuation: the Program evaluates
// the packed copy in place. It panics if the set overflows the packed
// layout's int32 offsets (≈2.1 billion monomials or terms); an in-memory
// Dataset's EvalBatch returns that error instead.
func Compile(set *Set) *Program { return valuation.Compile(set) }

// MeasureSpeedup times repeated valuation of both programs under their
// respective dense valuations and reports per-iteration times. iters <= 0
// picks an iteration count that targets a few milliseconds of work. The
// minimum of three repetitions is used to suppress scheduling noise.
func MeasureSpeedup(full, comp *Program, fullVals, compVals []float64, iters int) Timing {
	if iters <= 0 {
		iters = autoIters(full)
	}
	tf := timeEval(full, fullVals, iters)
	tc := timeEval(comp, compVals, iters)
	t := Timing{Full: tf, Compressed: tc, Iters: iters}
	if tf > 0 {
		t.Speedup = float64(tf-tc) / float64(tf)
	}
	return t
}

// CompareResults computes accuracy metrics between result vectors. Their
// groups correspond 1:1, so vectors of different lengths are an error.
func CompareResults(full, comp []float64) (Accuracy, error) {
	return valuation.CompareResults(full, comp)
}

// SensitivityEntry reports Σ_groups |∂result/∂variable| for one variable.
type SensitivityEntry = valuation.SensitivityEntry

// Sensitivity ranks the variables by how strongly the results depend on
// them at the assignment point — a guide for choosing scenarios and for
// judging what an abstraction may safely group.
func Sensitivity(set *Set, a *Assignment) []SensitivityEntry {
	return valuation.Sensitivity(set, a)
}

// RunSQL parses, plans and executes a SELECT over the catalog using the
// provenance-aware engine. It takes no Options: the engine has one
// sequential executor, so no field of Options changes how — or how fast —
// a query runs.
func RunSQL(query string, cat Catalog) (*Relation, error) { return sql.Run(query, cat) }

// ExplainSQL renders the planned operator tree (pushed filters, join order,
// hash keys) without executing the query.
func ExplainSQL(query string, cat Catalog) (string, error) { return sql.Explain(query, cat) }

// CaptureLineage extracts tuple-level (how-)provenance: one N[X] polynomial
// per output row of the query, from tuple-annotated relations. The row keys
// render across opts.Workers goroutines (the query runs on the one
// sequential executor); the set is bit-identical for every worker count.
func CaptureLineage(query string, cat Catalog, names *Names, opts Options) (*Set, error) {
	return provenance.CaptureLineageN(query, cat, names, opts.Workers)
}

// ParameterizeColumn instruments a numeric column: each cell is multiplied
// by the product of the variables derived from specs (cell-level
// instrumentation). It takes no Options: it is one sequential pass, because
// variable interning must run in row order, and sharding the rest around it
// measured 0.8× at 2 workers on TPC-H lineitem (SF 0.05; inside the
// run-to-run spread at SF 0.01) for 1.43× the bytes.
func ParameterizeColumn(rel *Relation, target string, specs []VarSpec, names *Names) (*Relation, error) {
	return provenance.ParameterizeColumn(rel, target, specs, names)
}

// AnnotateTuples instruments a relation at the tuple level: each tuple's
// annotation becomes a fresh variable derived from spec, using opts.Workers
// goroutines; bit-identical for every worker count.
func AnnotateTuples(rel *Relation, spec VarSpec, names *Names, opts Options) (*Relation, error) {
	return provenance.AnnotateTuplesN(rel, spec, names, opts.Workers)
}

// Capture runs a query and extracts its provenance polynomials. The result
// rows — group keys and polynomial extraction — render across opts.Workers
// goroutines; the query runs on the one sequential executor. The captured
// set is bit-identical for every worker count.
func Capture(query string, cat Catalog, names *Names, valueCol string, opts Options) (*Set, error) {
	return provenance.CaptureN(query, cat, names, valueCol, opts.Workers)
}

// CheckCommutation verifies that provenance valuation equals query
// re-execution over the concretized database.
func CheckCommutation(query string, cat Catalog, names *Names, valueCol string, a *Assignment) (CommutationReport, error) {
	return provenance.CheckCommutation(query, cat, names, valueCol, a)
}

// Serialization — the interface to external provenance engines.

// Format names a set encoding: FormatText (human-readable lines),
// FormatJSON or FormatBinary — one binary format, written as v3: framed,
// one compressed and checksummed frame per shard, for sets larger than
// memory. Format.Validate rejects any other name.
type Format = polyio.Format

// The set encodings WriteSet writes and ReadSet detects.
const (
	FormatText   = polyio.FormatText
	FormatJSON   = polyio.FormatJSON
	FormatBinary = polyio.FormatBinary
)

// WriteSet writes any SetSource (an in-memory Set or a ShardedSet) in the
// given format. FormatBinary writes one frame per shard and never holds
// more than one shard in memory; text and JSON encode the set as a single
// record and materialize a sharded source first.
func WriteSet(w io.Writer, src SetSource, format Format) error {
	return polyio.WriteSet(w, src, format)
}

// ReadSet reads a set in any format into memory and reports the format it
// detected from the first bytes: a binary magic (FormatBinary: the
// superseded v1 and v2 still read, nothing writes them), '{' for JSON,
// text otherwise.
func ReadSet(r io.Reader, names *Names) (*Set, Format, error) {
	return polyio.ReadSet(r, names)
}

// WriteAssignmentJSON writes an assignment as {"variable": value}.
func WriteAssignmentJSON(w io.Writer, a *Assignment) error {
	return polyio.WriteAssignmentJSON(w, a)
}

// ReadAssignmentJSON parses a {"variable": value} object.
func ReadAssignmentJSON(r io.Reader, names *Names) (*Assignment, error) {
	return polyio.ReadAssignmentJSON(r, names)
}
