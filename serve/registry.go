package serve

import (
	"fmt"
	"sort"
	"sync"

	cobra "github.com/cobra-prov/cobra"
)

// registry is the server's named-dataset table with LRU residency control:
// when more than maxResident out-of-core datasets still hold un-spilled
// shards, the least-recently-used ones are Evicted — every shard spilled,
// nothing kept in memory between requests — and go on answering from
// their spill files. Eviction is one-way, so each dataset is a victim at
// most once. In-memory datasets are never evicted (they have no spill
// representation to answer from).
type registry struct {
	mu          sync.Mutex
	maxResident int                  // out-of-core residency budget; <= 0 means unlimited
	clock       int64                // guarded by mu
	entries     map[string]*regEntry // guarded by mu
}

type regEntry struct {
	ds      *cobra.Dataset
	lastUse int64
}

func newRegistry(maxResident int) *registry {
	return &registry{maxResident: maxResident, entries: make(map[string]*regEntry)}
}

// put registers a dataset under name, failing if the name is taken, and
// applies the residency budget (the new dataset counts as just used).
func (r *registry) put(name string, ds *cobra.Dataset) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("dataset %q already exists", name)
	}
	r.clock++
	r.entries[name] = &regEntry{ds: ds, lastUse: r.clock}
	r.enforceLocked(name)
	return nil
}

// get returns the dataset, marks it most recently used, and applies the
// residency budget (never evicting the dataset just requested).
func (r *registry) get(name string) (*cobra.Dataset, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	r.clock++
	e.lastUse = r.clock
	r.enforceLocked(name)
	return e.ds, true
}

// remove closes and deletes the dataset.
func (r *registry) remove(name string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	delete(r.entries, name)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("dataset %q not found", name)
	}
	return e.ds.Close()
}

// infos returns every dataset's stats, sorted by name.
func (r *registry) infos() []DatasetInfo {
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	dss := make(map[string]*cobra.Dataset, len(r.entries))
	for name, e := range r.entries {
		names = append(names, name)
		dss[name] = e.ds
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]DatasetInfo, len(names))
	for i, name := range names {
		out[i] = datasetInfo(name, dss[name])
	}
	return out
}

// closeAll releases every dataset (shutdown).
func (r *registry) closeAll() {
	r.mu.Lock()
	entries := r.entries
	r.entries = make(map[string]*regEntry)
	r.mu.Unlock()
	for _, e := range entries {
		e.ds.Close()
	}
}

// enforceLocked evicts least-recently-used resident out-of-core datasets
// until the residency budget holds, never evicting keep (the dataset
// serving the current request). Eviction is best-effort: a failed Evict
// leaves the dataset resident rather than failing the request. r.mu
// must be held; Evict waits for the victim's in-flight solves, which never
// take registry locks, so holding r.mu here cannot deadlock.
func (r *registry) enforceLocked(keep string) {
	if r.maxResident <= 0 {
		return
	}
	for {
		resident := 0
		var victim string
		var victimUse int64
		for name, e := range r.entries {
			if !e.ds.OutOfCore() || !e.ds.Resident() {
				continue
			}
			resident++
			if name == keep {
				continue
			}
			if victim == "" || e.lastUse < victimUse {
				victim, victimUse = name, e.lastUse
			}
		}
		if resident <= r.maxResident || victim == "" {
			return
		}
		if ok, err := r.entries[victim].ds.Evict(); err != nil || !ok {
			return
		}
	}
}

// datasetInfo snapshots one dataset's wire stats.
func datasetInfo(name string, ds *cobra.Dataset) DatasetInfo {
	return DatasetInfo{
		Name:      name,
		Polys:     ds.Len(),
		Size:      ds.Size(),
		Vars:      len(ds.UsedVars()),
		Trees:     len(ds.Trees()),
		OutOfCore: ds.OutOfCore(),
		Resident:  ds.Resident(),
	}
}
