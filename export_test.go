package cobra

import "github.com/cobra-prov/cobra/internal/polynomial"

// ShardedSource returns the ShardedSet a dataset answers from, or nil when
// the dataset is held in memory, so tests can check its residency, spills
// and contents.
func ShardedSource(d *Dataset) *ShardedSet {
	ss, _ := polynomial.Unwrap(d.st.src).(*ShardedSet)
	return ss
}
