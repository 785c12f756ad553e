// Package cobra is a Go implementation of COBRA — COmpression using
// aBstRAction trees — the provenance-compression system for hypothetical
// reasoning of Deutch, Moskovitch and Rinetzky (ICDE 2019 demo; framework
// in SIGMOD 2019, "Hypothetical Reasoning via Provenance Abstraction").
//
// # What it does
//
// Hypothetical ("what-if") reasoning asks how a query result changes when
// the input changes. Instead of re-running the query for every scenario,
// the input is instrumented with symbolic variables, and query evaluation
// produces provenance polynomials — a symbolic representation of the result
// that can be re-evaluated under any valuation of the variables, orders of
// magnitude faster than re-execution, with equality guaranteed (the
// valuation commutes with query evaluation).
//
// Provenance can be large. COBRA compresses it with abstraction trees:
// ontology-like trees over the variables. A cut in the tree replaces all
// leaf variables below each cut node by one meta-variable; monomials that
// become identical merge. Given a bound on the number of monomials, COBRA
// finds — in polynomial time, by a bottom-up dynamic program — the cut that
// meets the bound while keeping the maximum number of distinct variables
// (the degrees of freedom left for hypotheticals).
//
// # Quick start
//
// The central handle is the Dataset: a named, immutable provenance set
// paired with its abstraction forest. Open one, then ask it questions —
// results are memoized on the handle, so the expensive dynamic program
// runs once no matter how many goroutines ask. ExampleOpenDataset is the
// walk-through, run by go test: build a set and a tree, open them as a
// Dataset, compress under a bound, derive the compressed dataset with
// Apply, and answer a what-if on both with EvalBatch.
//
// CaptureDataset builds the handle straight from an instrumented SQL
// query; OpenDataset accepts any SetSource — an in-memory Set, a
// ShardedSet, or a v3 file opened as a polyio.IndexedSet.
// Options.MaxResidentMonomials chooses between an in-memory and an
// out-of-core ShardedSet representation (OpenDataset documents the rule),
// and Options.SpillDir where the spill files go. Every algorithm has one
// entry point, a Dataset method. What stays beside it takes or returns
// values a caller holds: Apply and Compile on an in-memory Set,
// BestForBound on a curve, and the baselines CompressGreedy and
// CompressExhaustive.
//
// # Datasets: capture once, answer many times
//
// COBRA's economics are amortization: provenance is captured and
// compressed once, then thousands of what-if scenarios are answered
// against the compressed form. Dataset is that amortization reified:
//
//   - Compress(ctx, bound), Frontier(ctx), ForestFrontier(ctx) and
//     Sweep(ctx, bounds) memoize: concurrent callers share one solve
//     (single-flight), repeat callers get the cached answer. Sweep
//     answers every bound from the memoized curve by lookup.
//   - EvalBatch(ctx, assignments) evaluates scenarios against a
//     memoized Program (in-memory) or shard-at-a-time (out-of-core),
//     straight from each shard's slabs as they were spilled: no
//     polynomial is rebuilt and nothing is copied.
//   - Apply(ctx, cuts...) derives the compressed dataset: out-of-core
//     into a new ShardedSet, in memory into a PackedSet, whose slabs the
//     derived dataset's Program then evaluates in place.
//   - WithWorkers(n) returns a view with a different parallelism budget
//     sharing the same memoized state — sound because results are
//     bit-identical for every worker count.
//   - Every method takes a context: a canceled context aborts the
//     in-flight solve between shards, and cancellations are never
//     memoized.
//   - A dataset over a ShardedSet supports Evict(): every shard still in
//     memory is spilled and the pass buffers dropped, so the idle dataset
//     holds no monomial; it goes on answering from its spill file, bit
//     for bit as before. Nothing is converted or re-encoded, and eviction
//     is one-way: Resident() answers false from then on. In-memory
//     datasets ignore Evict. A dataset opened over an indexed v3 file
//     holds the ShardedSet the file was decoded into at open, and evicts
//     like any other.
//
// The serve package and cmd/cobra-serve wrap a registry of Datasets in a
// long-lived HTTP/JSON daemon: background capture/compress jobs, request
// worker budgeting against a shared pool, LRU eviction under a residency
// budget, graceful shutdown. Responses are bit-identical to direct
// library calls (encoding/json round-trips float64 exactly).
//
// # Evaluation
//
// A Program evaluates a PackedSet (see "Representation") in place: it
// holds the packed set's slabs, not a copy of them, and picks one of three
// kernels for them. Compile packs a Set and returns the Program over the
// packed copy; a derived in-memory dataset is already packed, so its
// Program and the dataset share the one copy of the compressed
// provenance. A program with a higher power runs the general kernel. One
// whose exponents are all 1 — all SUM provenance's are — runs a kernel
// that loads no exponents and takes no branch per term. One that also has
// the same number of terms, one or two, in every monomial — plan·month
// and sku·week, a group's month — runs a stride kernel, which steps
// through the terms by that number instead of reading where each monomial
// ends. Every kernel follows one rule: a monomial is multiplied left to
// right and a polynomial's monomials are added in order, so the rows are
// bit-identical whichever kernel runs. An out-of-core pass picks the
// kernel again for every shard.
//
// A what-if scenario moves a few variables off 1 and leaves the rest, so
// the first EvalBatch on a Program builds, once, an index from each
// variable to the polynomials that mention it and the row every polynomial
// takes when all variables are 1. A scenario's row is then that baseline
// row with only the polynomials of its moved variables evaluated again;
// once a scenario touches every polynomial the full pass runs instead.
// "Moved" means a value != 1, not presence in the assignment: an explicit
// 1 moves nothing. 0, NaN and the infinities are != 1 and are evaluated
// like any other value; variables outside the program's namespace are
// ignored. The rows are bit-identical to evaluating every polynomial: a
// re-evaluated polynomial runs the same kernel over the same values, and a
// skipped one would have read only ones, exactly as it did for the
// baseline row. Out-of-core datasets evaluate each shard for one
// batch and drop it — one Program bound to shard after shard, each a
// PackedSet (see "The streaming pipeline") — so they evaluate every
// polynomial and build no index.
//
// A batch answers several analysts at once, and a full pass is bound by
// the latency of one running sum, not by the work. So when one worker's
// share of a batch holds two or more scenarios that need a full pass, and
// the program has no exponent above 1, they are evaluated four at a time:
// each polynomial is walked once for the four, which keep four sums side
// by side. Each sum still follows the one rule — products left to right,
// monomials added in order, every product rounded before its add — so each
// row is bit-identical to evaluating its scenario alone; a last scenario
// without a partner, a sparse one, and every call for one scenario run the
// one-scenario kernels. On whatif_telephony's shape this halves the time
// per scenario of a full pass.
//
// Everything in front of the kernel costs what the scenario names, not what
// the trees, the namespace or the program hold. An Assignment is a list of
// (variable, value) entries sorted by variable: reading one is a binary
// search, copying it one copy. Induced enters a meta-variable only for a
// cut node with an assigned leaf under it — a group no assigned leaf falls
// in averages to n/n, exactly 1, which is what an absent variable reads as
// — so its result is the scenario plus a handful of entries, found by
// walking up from the assigned leaves, never by visiting the cuts' nodes.
// A Program keeps its evaluation scratch (the dense vector, the marks of
// touched polynomials) between calls. One what-if is therefore O(assigned
// variables + leaves under the groups they fall in + touched polynomials),
// up to the logarithm of the binary searches.
//
// Measured (BENCHMARK.json workloads, one scenario per call, compressed /
// full provenance in µs, medians of ten runs): capture_telephony 1.5 / 2.1,
// compress_sweep 15.6 / 36.4, whatif_retail 15.3 / 22.2, whatif_telephony
// 62 / 221 — and capture_tpch 7.0 / 4.6. There the compressed what-if still
// trails the full one, and that is a stated limit, not a defect: at ~10³
// monomials compression buys memory, not time — the compressed what-if pays
// Induced and has ~400 monomials fewer to evaluate (884 against 1 269). In
// batches, where Induced is paid ahead, the compressed side leads there too
// (113 k against 109 k scenarios/s). The gain is also small where a
// scenario touches few polynomials (retail: 0.06 of them): the sparse path
// speeds the full provenance up as much as the compressed one.
//
// # Parallelism
//
// Every stage of the instrument → capture → compress → evaluate pipeline
// but two scales across cores through the Options knob: AnnotateTuples,
// Capture, CaptureLineage and Apply take an Options value, and a Dataset
// from OpenDataset or CaptureDataset runs Compress, Frontier,
// ForestFrontier, Sweep, Apply and EvalBatch with the Workers it was
// opened with (WithWorkers(n) returns a view with another budget). Each
// shards its work over up to Options.Workers goroutines (AutoWorkers
// returns the saturating count) and has exactly one name and one
// signature. The two
// stages are the ones a second, parallel implementation measured slower
// on. Query execution: the SQL engine has a single sequential executor
// (see "The SQL engine" below), so of a capture only the rendering of
// result rows into keys and polynomials is sharded, and RunSQL takes no
// Options at all. Cell-level instrumentation: ParameterizeColumn takes no
// Options either and is one sequential pass (variable interning must stay
// in row order, and sharding the rest around it ran at 0.8× on TPC-H
// lineitem at SF 0.05; tuple-level AnnotateTuples gains 1.4× at two
// workers there and shards). Workers <= 1 — the zero Options — runs fully
// sequentially.
//
//	ds, err := cobra.OpenDataset("zips", set, cobra.Forest{tree},
//		cobra.Options{Workers: cobra.AutoWorkers()})
//
// Determinism guarantee: parallel runs return bit-identical results to the
// sequential path for every worker count. Only deterministic work is
// sharded — signature indexing (each worker scans a contiguous run of
// whole polynomials into per-node counters of its own, and the counters
// are added up: integer sums, so their order cannot matter), cut
// application (polynomials are the unit: each one is mapped and merged
// sequentially, in its own canonical order, by one worker, so the float
// summation order below holds whatever the worker count, shard layout or
// source representation), chunked scenario evaluation (each row written to
// its own slot from a per-worker arena), tuple-level instrumentation
// and the rendering of captured rows (contiguous row ranges, with variable
// interning kept sequential so Var allocation order never changes).
// Streaming capture preserves the same guarantee: rows render in parallel
// batches but reach the sink sequentially in row order.
// What-if answers therefore never depend on the machine's core count.
//
// # Frontier sweeps: one DP run, many bounds
//
// Hypothetical reasoning in practice is slider-style: the analyst drags a
// size bound back and forth, and every position asks for the optimal
// abstraction under that bound. Re-running Compress per position re-pays
// the optimizer's dominant cost — the signature-indexing scan over the
// provenance — every time. A frontier is the complete bound→optimum curve
// from ONE such run: for every feasible number of meta-variables k, the
// minimal compressed size and a cut attaining it (Dataset.Frontier). Any
// bound is then answered by lookup (BestForBound: maximal feasible k, ties toward the
// smaller size — the DP's own choice), and Dataset.Sweep answers an
// arbitrary batch of bounds this way — the curve is memoized on the
// handle, so a second sweep costs only lookups:
//
//	answers, err := ds.Sweep(ctx, []int{9000, 6000, 3000, 1000})
//
// For a single tree every sweep answer — cut, sizes, statistics, and
// error — is bit-identical to Compress at that bound, for every worker
// count and source representation; a 32-bound batch costs one compression
// instead of 32 (the compress_sweep workload of benchmark/ times it).
//
// Forests sweep too: Dataset.ForestFrontier computes each tree's curve (in
// parallel across trees for in-memory sets; strictly one tree at a time
// for sharded sources, so the residency budget holds) and composes them
// into one forest-level curve with a knapsack-style DP over the trees.
// The composition is exact precisely when every monomial contains leaves
// of at most one tree — dimensions instrumented on disjoint parts of the
// data — because the joint compressed size is then additive across trees.
// A monomial coupling two trees makes the joint problem NP-hard, and the
// sweep refuses it with a CrossTreeError rather than return wrong minima.
// On partitioned instances the sweep's answers are exact optima (matching
// exhaustive search), and Dataset.Compress answers a partitioned forest
// from the same curve, so at each bound it returns the sweep's answer. A
// coupled forest goes to Compress's coordinate descent, a heuristic that
// may settle for less than the optimum.
//
// # The streaming pipeline: SetSource and SetSink
//
// Every stage of the pipeline is written once against two small
// interfaces of internal/polynomial: a SetSource iterates keyed
// polynomials shard-at-a-time (implemented by both the in-memory Set — one
// shard: itself — and the spilling ShardedSet), and a SetSink receives
// them one at a time (implemented by Set, which materializes, and
// ShardBuilder, which seals fixed-size shards and spills past
// Options.MaxResidentMonomials). Each
// stage streams from a source into a sink, so the whole pipeline runs
// end-to-end without ever holding more than one shard per stage:
//
//	SQL rows ──CaptureDataset───▶ ShardBuilder ─▶ ShardedSet     (capture: row-at-a-time)
//	SetSource ──Dataset.Compress─▶ cut            (index built shard-at-a-time)
//	SetSource ──Dataset.Apply────▶ SetSink        (compressed shards re-spill)
//	SetSource ──Dataset.EvalBatch▶ result rows    (one shard's slabs evaluated at a time)
//	SetSource ──WriteSet(FormatBinary)─▶ v3 frames ──OpenDataset──▶ ShardedSet
//
// A Dataset opened over a ShardedSet — or over any other source under a
// budget, which OpenDataset first copies into a ShardedSet of its own —
// routes every method down this streaming path automatically, so there is
// no separate "streamed" entry point.
// A Dataset opened over a v3 file (a polyio.IndexedSet) decodes the file
// once, at open: each shard is read, checksummed, inflated and decoded in
// one pass and kept, as the PackedSet it decoded into, as a shard of the
// dataset's own ShardedSet (ShardBuilder.AddPacked, no second copy),
// spilling under Options.MaxResidentMonomials if it is set.
// Every later call reads that ShardedSet, never the file.
//
// Capture is streaming too: CaptureDataset under a budget executes the
// query through the engine's Volcano pull loop and hands each output row's
// polynomial straight to the dataset's ShardBuilder — the result relation
// and the full provenance set never materialize, so a join whose
// provenance exceeds memory captures within the budget. Every dataset
// answers bit-identically to the in-memory one for every worker count —
// the determinism guarantee extends to the out-of-core path.
//
// OpenDataset under a budget partitions an in-memory set into shards the
// same way. Once the resident monomial count would exceed Options.MaxResidentMonomials,
// whole shards spill to the set's one spill file, in a private temp
// directory (both removed by Close), and stream back one at a time.
//
// A spilled shard is one record of that file, at the offset and length
// the shard records, and the record is its packed form (see
// "Representation" below) written slab for slab, every number fixed-width
// in the machine's native byte order: magic "CSPILL3\n", five counts, the
// two offset tables, the coefficients, the variable column, the exponent
// column — omitted when every exponent is 1, as in all SUM provenance —
// and the keys. A spill appends a record; a failed write leaves the end
// offset where it was and truncates the file back to it, so the file holds
// only whole records. The
// counts fix the record's length, so one comparison against the recorded
// length bounds everything the decoder allocates; loading is then one
// positioned read per slab, straight into the slab's memory — the
// kernel's copy is the only one, with no file opened and no staging
// buffer — followed by a structural validation of the typed slabs
// (offsets monotone and ending at the counts, variables inside the
// namespace, exponents as the encoder writes them). A spilled set holds
// one file descriptor from its first spill to Close. The file is private to the process and never
// outlives it: variables are raw ids with no name table, there is one
// version, and native byte order is sound because the only reader of a
// file is the process that wrote it. It is the out-of-core store's memory
// image, never an interchange format (those are the ones under "On-disk
// formats"), and it is all an evicted dataset consists of.
// ShardedSet.SpillIO counts its traffic: shards loaded, split into those
// a *Set pass viewed and those a packed pass read, bytes read and bytes
// written.
//
// A ShardedSet keeps every shard in one shape, its packed slabs (see
// "Representation" below): a resident shard holds them in memory, a
// spilled one in its record. Stages that need polynomials (the signature
// index, cut application, serialization) get every shard, resident or
// loaded, as a *Set viewed over its slabs, built afresh for the pass.
// Evaluation does not: EvalBatch reads the slabs themselves and never
// builds a *Set — a resident shard is handed over itself, a spilled one
// decoded into one scratch the ShardedSet reuses for every spilled shard
// of every pass. That scratch — one shard's worth of memory, within the
// half of the budget the shard-size clamp reserves for a shard in flight
// — stays with a ShardedSet that has loaded a shard until Close, or until
// Dataset.Evict drops it along with the resident shards; the next pass
// grows it again. An evicted dataset is
// evaluated the same way as before, now with every shard loaded from its
// spill record, and so is a dataset opened over an indexed v3 file: its
// shards are the slabs the v3 decoder filled at open.
//
// # On-disk formats
//
// There are three interchange formats — text, JSON and one binary — and
// WriteSet(w, src, format) writes each; ReadSet(r, names) reads any of
// them and reports the Format it detected from the first bytes, so no
// caller passes an input format. A binary file opened with
// polyio.OpenIndexedSet and handed to OpenDataset is decoded straight into
// a budgeted ShardedSet.
//
// Binary (FormatBinary) is written as v3 and only as v3. Two superseded
// versions are read-only legacy: ReadSet still reads them, reports them as
// FormatBinary too, and nothing writes them. v1 is a
// single record: magic "CPRVB1\n", a variable-name table, then every
// polynomial with varint terms referencing table indices. v2 frames that
// record per shard: magic "CPRVB2\n", then 'S' plus a v1 body for each
// shard, each with its own table, and an end frame ('E' plus the shard
// count) so truncation is always detected. What those readers must keep
// reading is pinned by files the last commit with v1/v2 writers wrote
// (internal/polyio/testdata/legacy).
//
// The v3 format (WriteSet with FormatBinary, or polyio.WriteSetStreamV3
// to choose compression; read in sequence by ReadSet, at random by
// polyio.OpenIndexedSet) frames shards too, so neither side of a
// transfer ever holds more than one, and makes every shard independently
// decodable:
//
//	magic "CPRVB3\n"
//	shard frames: 'S', flags byte, uvarint rawLen, uvarint storedLen,
//	    payload (delta-varint columnar encoding of the shard; flag bit 0
//	    marks the payload DEFLATE-compressed — set per shard, only when
//	    compression actually shrinks it)
//	footer frame: 'F', uvarint length, then for each shard its payload
//	    byte offset, stored and raw lengths, flags, first-polynomial
//	    index, polynomial and monomial counts, and a CRC32 of the stored
//	    bytes; then the union of the shard name tables in
//	    first-appearance order
//	trailer: 8-byte LE footer offset, tail magic "CPRVF3\n"
//
// A random-access reader seeks the trailer, loads the footer index, and
// then decodes any subset of shards in any order on any number of
// goroutines, verifying each shard's checksum as it goes. The
// determinism contract: the footer name table repeats exactly the
// variable order a sequential read would intern, so an indexed open
// pre-interns the same Vars and random-access decode is bit-identical
// to the sequential stream — same set, same namespace, independent of
// decode order and worker count. Damage is always a typed error
// (polyio.CorruptError or polyio.ChecksumError), never a panic or a
// silent short read. The per-shard checksums guard what leaves the
// process; the spill file of an out-of-core dataset, which never does, is
// guarded by the spill decoder's structural validation instead.
//
// # Representation: packed monomials and per-worker arenas
//
// Two in-memory representations implement SetSource. The pointer form —
// Set — is a slice of keyed Polynomials, each a []Monomial whose term
// vectors are separately allocated: flexible to build and mutate, but a
// million monomials are over a million small objects for the collector
// to trace. The packed form (internal/polynomial.PackedSet) holds the
// same data in append-only slabs, with int32 offset slices delimiting
// polynomials and monomials:
//
//	keys:    ["zip 10001", "zip 10002", ...]   one key per polynomial
//	polyOff: [0, 2, ...]                       poly i's monomials = [polyOff[i], polyOff[i+1])
//	coefs:   [208.8, 240.0, 115.2, ...]        one coefficient per monomial
//	monOff:  [0, 2, 4, 5, ...]                 monomial m's terms = [monOff[m], monOff[m+1])
//	vars:    [p1 m1 | p1 m3 | p2 | ...]        the variable of every term, flat
//	exps:    [ 1  1 |  1  2 |  1 | ...]        their exponents; absent while all are 1
//
// These are the arrays a Program evaluates — valuation.NewProgram binds a
// Program to a packed set's own slabs, Compile packs a Set first — so a
// packed set is evaluated where it lies. They are what a ShardedSet keeps
// each shard in, resident, and spills as they are, and what an in-memory
// Dataset.Apply writes the compressed provenance into. However a packed
// set is produced — PackSet from a Set, Add per polynomial, or the
// BeginPoly/AppendMonomial builder path that never forms an intermediate
// Polynomial — the slabs are bit-identical for the same logical content.
// View() builds a fresh *Set on every call: it copies the keys, zips the
// two term columns into one slab and overlays it with Polynomial windows
// (four allocations however many monomials), so every Set-based
// algorithm (indexing, cut application, compiled valuation) runs
// unchanged over either representation and returns bit-identical
// answers; ForEachShard presents the view as a single shard, which is
// how a PackedSet flows into the streaming pipeline.
//
// The same discipline governs scratch memory in the parallel stages.
// Arena lifetime rules: each worker allocates its scratch — name-render
// byte slabs, the signature scan's record array, hash table and per-node
// counters (sized by the largest polynomial met and reused for every
// polynomial of every shard), the term slab a polynomial's mapped
// monomials are carved from — once per contiguous shard range or per
// polynomial, never per row or per monomial; slab windows
// handed onward (interned names, rendered values) are never rewritten
// after they are published, so append-grown backings stay valid; and
// every per-worker partial is merged into shared state sequentially in
// range order, which is what keeps results bit-identical and keeps the
// allocation count flat across worker counts (a paired test asserts
// workers=2 allocates no more per op than workers=1 on the compression,
// descent and apply paths). Row values obey the same
// borrow contract: a Tuple's Values are valid only until the iterator's
// next Next or Close, so buffering consumers copy, and annotations are
// immutable once attached.
//
// # The SQL engine: one executor, narrow rows
//
// A query runs on one Volcano pull loop (Scan, Filter, HashJoin,
// NestedLoopJoin, GroupBy, Sort, Project, Limit); there is no second,
// materializing implementation of the operators for Workers > 1. Three
// rules make the join → aggregate pipeline allocate per distinct key and
// per group, never per row, and they are contracts a caller can rely on.
//
// The cell. A Value is two words, and the zero Value is NULL: a payload word
// (an int64, the bits of a float64, a bool, or — for the two reference
// kinds — a length with the kind in its top four bits) and a pointer word
// (nil for NULL, a per-kind tag address for INT, FLOAT and BOOL, else the
// string's first byte or the polynomial's first monomial; the empty string
// and the zero polynomial point at their tag, so neither reads as NULL). A
// cell is read through methods — Kind(), and I(), F(), S(), B(), P(), each
// returning the zero value of its type on a cell of another kind — and
// built by Int, Float, Str, Bool, Poly (PolyValue on the facade) and Null.
// Strings and polynomials are immutable, which is what lets a cell point
// into them; P() returns a slice with cap == len. Values cannot be compared
// with == (two cells holding "a" may point at different bytes): use Equal,
// or Compare. Every slab sized in cells — Collect's chunks, a join's build
// rows, the key table, Sort's copies, Relation.Clone — is
// sized by these 16 bytes; the struct of one field per kind this replaced
// was 72.
//
// Key equivalence. Hash joins and GROUP BY share one key table:
// a 64-bit hash of the key cells by kind, every hash tie settled by
// comparing the cells. Two keys are equal exactly when Value.Compare says 0
// on every cell — INT 2 joins FLOAT 2.0 and -0.0 groups with +0.0, just as
// the = of a WHERE clause decides when the same predicate runs as a filter
// — NULL is a group of its own but never joins, and a symbolic cell in a
// key is an error. Compare looks at two cells of one kind directly: INT
// with INT is exact (2^53 and 2^53+1 are two keys, though they share a
// float64 and so a hash), string with string is one strings.Compare; only
// INT with FLOAT goes through float64, and float64s are totally ordered
// (NaN equals NaN, below every number), so a NaN key is one group. Join output is probe-row order × build insertion order;
// groups and distinct rows come in first-seen order, showing the key values
// of their first row.
//
// Live columns. The planner gives every hash join the columns something
// above it still reads: the select list, GROUP BY, HAVING and ORDER BY
// expressions plus every WHERE conjunct not applied yet. The join stores
// and emits only those (ExplainSQL prints them as "keep [...]"; SELECT *
// keeps everything), writing the probe row's part of an output row once
// per probe row. On the running example the two joins keep 4 of 6 and 3 of
// 9 columns.
//
// Predicates. A table's own WHERE conjuncts are AND-ed in WHERE order,
// compiled once at plan time into closures over a row, and tested by the
// table's Scan as it reads each row (ExplainSQL prints them on the Scan
// line after "where"). A conjunct over several tables runs in a Filter
// above the join that completes them, and HAVING in a Filter above the
// GroupBy, through the same compiled closures. A compiled predicate admits
// a row exactly when Truthy(Eval) of its expression does, with the same
// error raised by the same conjunct: a column compared with literals reads
// its cell and runs the comparison's own last step of Eval, with no
// interface call (two strings are one strings.Compare), and every other
// operand goes through Eval. Selection moves no values, so captured
// provenance is the same bits as with tree-walking Eval.
//
// Summation order. There is one rule wherever monomials merge, for capture
// and for cut application: a merged coefficient is the left-to-right
// float64 sum of its contributions in the order they arrive, zero
// contributions are skipped, term vectors whose sum is exactly zero are
// dropped, and only the distinct term vectors are sorted at the end
// (polynomial.Accumulator).
//
// Capture: a symbolic SUM, COUNT or AVG — and a group's annotation —
// merges each row's monomials as the rows arrive, so the arrival order is
// input-row order, with the sum of the group's concrete contributions added
// last; SUM over a product of one symbolic factor and any number of
// concrete ones feeds coefficient·factor·factor… straight in, multiplied in
// the order the product is written, without building a scaled polynomial
// (a row where a factor zeroes a coefficient takes the plain route).
//
// Cut application (Apply, Compress, Dataset.Apply): a polynomial's
// monomials are substituted and merged in the polynomial's canonical
// order, which is the same for every worker count and every source. A
// polynomial whose substituted monomials each fit one 64-bit key — at
// most two terms, every exponent 1, distinct variables, which is all SUM
// provenance under a cut — merges those keys in an open-addressed table
// and sorts them, which is unsigned key order and canonical order at once;
// any other polynomial goes through the Accumulator. Both follow the rule
// above, so which one ran never shows in the bits.
//
// Both replaced "collect every monomial, sort, merge neighbours", which
// sorted 12 000 monomials per group to keep 132 — and 210 per store to keep
// 56 — and left the order of a float sum to whatever the sort did with
// equal keys; the arrival order is both cheaper and something that can be
// stated.
//
// # Iterator lifecycle
//
// The engine's Volcano operators uphold a strict lifecycle contract: an
// Open that returns an error has released everything it acquired (a join
// whose right side fails to open closes its already-opened left child),
// so callers only Close iterators whose Open succeeded — and then exactly
// once, on success and on every error path. Collect reports a Close
// failure even when the scan itself succeeded.
//
// # Invariants and the lint suite
//
// The guarantees above are not conventions but mechanically enforced
// invariants: cmd/cobra-lint is a go/analysis-style suite of seven
// analyzers, run through the standard vet driver (go vet -vettool, or
// `make cobra-lint`; the binary is a `tool` in go.mod), and the tree
// must stay at zero findings. The dataflow-sensitive analyzers
// (iterclose, lockguard) share a per-function control-flow graph
// (internal/lint/cfg: basic blocks, reverse postorder) rather than
// re-deriving path questions from raw syntax.
//
//   - determinism: in the order-sensitive packages (internal/core,
//     polynomial, abstraction, valuation, polyio, provenance), ranging
//     over a map is flagged unless the keys are sorted at the site —
//     map visit order must never reach an observable result, which is
//     what makes parallel runs bit-identical and serialized bytes
//     stable.
//   - nogoroutine: the `go` statement is confined to internal/parallel
//     and serve; all other code routes concurrency through the worker
//     pool, so the Workers knob is the only source of parallelism.
//   - iterclose: every engine.Iterator obtained from Open must be
//     Closed on all paths (or handed off), upholding the lifecycle
//     contract of the previous section.
//   - sinkerr: errors from SetSink methods (Add, AddSet, Seal, Finish,
//     Close) may not be discarded — a dropped sink error is silently
//     truncated provenance.
//   - ctxflow: library packages may not mint context.Background() or
//     context.TODO(); contexts are threaded from the caller so
//     cancellation always propagates.
//   - nowallclock: the deterministic core may not read the wall clock
//     (time.Now) or use math/rand; measurement lives in the root
//     package (MeasureSpeedup) and in benchmark/.
//   - lockguard: a struct field annotated `// guarded by <mu>` may only
//     be read with that mutex (or its read lock) held, and only written
//     with it write-held, on every CFG path from function entry;
//     *Locked-suffix methods document the caller holds it.
//
// Allocation on the hot paths is not a lint rule but eight
// testing.AllocsPerRun tests that each name the invariant they protect:
// signature indexing allocates per polynomial run, never per monomial
// (TestBuildIndexAllocations, internal/core), and no solver entry point
// allocates more at two workers than a small overhead above one
// (TestWorkerAllocParity, internal/core); cut application stays within
// four allocations per polynomial, and into a PackedSet allocates
// nothing per polynomial (TestApplySourceAllocations,
// internal/abstraction); Program.Eval into a reused row allocates nothing
// (TestProgramEvalAllocations), a slider over spilled shards allocates at
// most ten times per shard and nothing per monomial
// (TestEvalBatchSourceAllocations), and the scenario path — Induced, then
// a warmed one-scenario batch — does not follow the size of the tree, the
// namespace or the program (TestScenarioPathAllocations, all three in
// internal/valuation); a capture allocates per group and key table, not
// per row, on the telephony join (TestCaptureAllocations) and on TPC-H Q1
// (TestCaptureAllocationsQ1, both in internal/provenance). The shape of
// this facade is pinned the same way: TestFacadeSurface fails if cobra.go
// exports more than 38 functions, a deprecated one, or an X beside an
// XWith, and TestLibraryDoesNotLinkTheHarness if the root package imports
// the experiment runners or a data generator.
//
// Each analyzer has a justification escape hatch — a //cobra:<name>
// <reason> comment on (or immediately above) the flagged line — for the
// rare site where the pattern is provably harmless (for example, a
// map-to-map merge whose visit order cannot reach the result). A
// directive without a reason is itself a finding.
//
// The package also bundles everything needed to reproduce the paper
// end-to-end: a provenance-aware SQL engine (RunSQL, Capture), the
// telephony running example and a TPC-H workload (internal/datagen), fast
// compiled valuation (Compile, MeasureSpeedup), accuracy metrics, and
// serialization for interoperating with external provenance engines
// (ReadSet/WriteSet; out of core, OpenDataset over polyio.OpenIndexedSet).
// See ROADMAP.md
// in the repository root, the experiment index in internal/experiments
// (E1–E9 and E11, the paper's tables; cmd/cobra-bench prints them — the
// engineering measurements are the workloads of benchmark/), the runnable
// programs under examples/, and the command-line tools under cmd/.
package cobra
