// Package serve implements the cobra-serve HTTP/JSON API: a long-lived
// daemon holding named, immutable cobra.Dataset handles so that provenance
// is captured and compressed ONCE and hypothetical what-if scenarios are
// answered many times, concurrently, from shared memoized state — the
// amortization at the heart of COBRA (ICDE 2019).
//
// The API surface:
//
//	GET    /healthz                       liveness
//	GET    /v1/datasets                   list datasets
//	PUT    /v1/datasets/{name}            register from text provenance + tree JSON
//	GET    /v1/datasets/{name}            one dataset's stats
//	DELETE /v1/datasets/{name}            close and remove
//	POST   /v1/datasets/{name}/capture    background capture job (generator-based)
//	POST   /v1/datasets/{name}/compress   background compress+apply job -> derived dataset
//	GET    /v1/jobs/{id}                  job status polling
//	POST   /v1/datasets/{name}/eval       evaluate scenario assignments
//	POST   /v1/datasets/{name}/sweep      answer a batch of bounds from the memoized curve
//	GET    /v1/datasets/{name}/frontier   the full tradeoff curve
//
// Every response the solver computes is bit-identical to the corresponding
// direct cobra.Dataset call for every worker count: the handlers only
// marshal float64 results through encoding/json, which round-trips floats
// exactly.
package serve

import "encoding/json"

// RegisterRequest registers a dataset synchronously from serialized
// provenance: the text polynomial format (any format cobra.ReadSet
// detects is accepted) and nested-JSON abstraction trees. A positive
// MaxResidentMonomials selects the out-of-core representation (and makes
// the dataset evictable under registry pressure).
type RegisterRequest struct {
	Provenance           string            `json:"provenance"`
	Trees                []json.RawMessage `json:"trees"`
	MaxResidentMonomials int               `json:"maxResidentMonomials,omitempty"`
}

// DatasetInfo is one dataset's registry entry and input statistics.
type DatasetInfo struct {
	Name      string `json:"name"`
	Polys     int    `json:"polys"`
	Size      int    `json:"size"`
	Vars      int    `json:"vars"`
	Trees     int    `json:"trees"`
	OutOfCore bool   `json:"outOfCore"`
	Resident  bool   `json:"resident"`
}

// DatasetsResponse lists the registry.
type DatasetsResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// CaptureRequest starts a background capture job building a dataset from
// one of the built-in generators: "figure1" (the paper's Figure-1 database
// captured through the provenance-aware SQL engine) or "telephony" (the
// scalable synthetic telephony workload; Customers sets its size).
type CaptureRequest struct {
	Generator            string `json:"generator"`
	Customers            int    `json:"customers,omitempty"`
	MaxResidentMonomials int    `json:"maxResidentMonomials,omitempty"`
}

// CompressRequest starts a background job that compresses the dataset at
// Bound and registers the compressed provenance as a derived dataset named
// As ("{name}@{bound}" if empty), ready for cheap EvalBatch traffic.
type CompressRequest struct {
	Bound   int    `json:"bound"`
	Workers int    `json:"workers,omitempty"`
	As      string `json:"as,omitempty"`
}

// JobResponse acknowledges a background job submission.
type JobResponse struct {
	Job string `json:"job"`
}

// JobInfo is a background job's status for polling.
type JobInfo struct {
	ID      string          `json:"id"`
	State   string          `json:"state"` // "running", "done" or "failed"
	Error   string          `json:"error,omitempty"`
	Dataset string          `json:"dataset,omitempty"` // registered result dataset
	Result  *CompressResult `json:"result,omitempty"`
}

// CompressResult mirrors cobra.Result over the wire: the chosen cuts (node
// names per tree, forest order) and the size statistics.
type CompressResult struct {
	Bound        int        `json:"bound"`
	Size         int        `json:"size"`
	NumMeta      int        `json:"numMeta"`
	UsedMeta     int        `json:"usedMeta"`
	OriginalSize int        `json:"originalSize"`
	OriginalVars int        `json:"originalVars"`
	Cuts         [][]string `json:"cuts"`
}

// EvalRequest evaluates scenario assignments ({"variable": value} each;
// unassigned variables default to 1) against the dataset. Workers is the
// request's worker budget, clamped to the server's pool.
type EvalRequest struct {
	Assignments []map[string]float64 `json:"assignments"`
	Workers     int                  `json:"workers,omitempty"`
}

// EvalResponse carries one result row per assignment, in request order;
// row entries are one value per polynomial in set order.
type EvalResponse struct {
	Rows [][]float64 `json:"rows"`
}

// SweepRequest answers a batch of size bounds from the dataset's memoized
// tradeoff curve.
type SweepRequest struct {
	Bounds  []int `json:"bounds"`
	Workers int   `json:"workers,omitempty"`
}

// SweepAnswer is the per-bound outcome: a result, or infeasibility with
// the minimal achievable size, or the error per-bound compression would
// have returned.
type SweepAnswer struct {
	Bound         int             `json:"bound"`
	Result        *CompressResult `json:"result,omitempty"`
	Infeasible    bool            `json:"infeasible,omitempty"`
	MinAchievable int             `json:"minAchievable,omitempty"`
	Error         string          `json:"error,omitempty"`
}

// SweepResponse carries the answers in request bound order.
type SweepResponse struct {
	Answers []SweepAnswer `json:"answers"`
}

// FrontierPoint is one point of the expressiveness/size tradeoff curve.
type FrontierPoint struct {
	NumMeta int      `json:"numMeta"`
	MinSize int      `json:"minSize"`
	Cut     []string `json:"cut"`
}

// FrontierResponse carries the complete curve in increasing NumMeta order.
type FrontierResponse struct {
	Points []FrontierPoint `json:"points"`
}

// ErrorResponse carries a request failure.
type ErrorResponse struct {
	Error string `json:"error"`
}
