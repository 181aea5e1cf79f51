// Package distrib is the network layer over the sweep pipeline: it carries
// the Execute stage of Plan / Execute / Reduce across a process boundary.
//
//   - A Worker is an HTTP daemon (glacsim worker) that accepts shard
//     requests — a declarative grid spec, the plan fingerprint and the
//     global indices of the cells to run — executes them with
//     sweep.RunPlanned, and streams the partial summary back as the
//     WriteJSON wire document. /healthz reports liveness and load, and
//     concurrent shards are bounded.
//   - RemoteRunner implements sweep.Runner by fanning planned cells out
//     across a pool of workers, verifying every returned fingerprint, and
//     retrying/requeueing shards from dead or erroring workers under a
//     per-shard attempt cap.
//   - RunResumable runs a grid through any Runner in chunks and
//     checkpoints every finished cell in a per-campaign result cache
//     (internal/rescache), so an interrupted campaign resumes by running
//     only the cells that are not stored yet.
//
// Behavioural hooks (Grid.Drive, Override.Apply) are functions and cannot
// cross the wire — exactly the caveat sweep.Fingerprint documents. The
// hooks registry closes the gap: a worker binary registers named hook sets
// at init time, a shard request names the set it needs, and the worker
// reattaches the hooks to the decoded grid before planning. The
// plan fingerprint is verified on both sides of every request, so a worker
// whose registry (or binary) drifted from the coordinator's refuses the
// shard instead of producing subtly different cells.
package distrib

import (
	"fmt"
	"sync"

	"repro/internal/sweep"
)

// Hooks reattaches behavioural hooks to a grid decoded from the wire. A
// hook set that covers a parameter family (e.g. CLI flag values) reads the
// parameters from the grid's override names, which the plan fingerprint
// hashes. args is always "".
type Hooks func(args string, g *sweep.Grid) error

var (
	hooksMu  sync.RWMutex
	hookSets = map[string]Hooks{}
)

// RegisterHooks adds a named hook set to the process registry, typically
// from an init function of the package that owns the grid. The name is the
// contract between coordinator and worker binaries; registering an empty
// name, a nil hook set or a duplicate is a programming error and panics.
func RegisterHooks(name string, h Hooks) {
	if name == "" || h == nil {
		panic("distrib: RegisterHooks needs a name and a hook set")
	}
	hooksMu.Lock()
	defer hooksMu.Unlock()
	if _, dup := hookSets[name]; dup {
		panic(fmt.Sprintf("distrib: hook set %q registered twice", name))
	}
	hookSets[name] = h
}

// LookupHooks returns the named hook set.
func LookupHooks(name string) (Hooks, bool) {
	hooksMu.RLock()
	defer hooksMu.RUnlock()
	h, ok := hookSets[name]
	return h, ok
}

// HooksFromGrid adapts a grid builder into a hook set: the builder
// constructs a reference grid (any parameters — only its hooks are read)
// and the returned Hooks grafts that grid's Drive onto the decoded grid
// plus each override's Apply, matched by name. An override name the
// reference grid lacks is an error: the coordinator asked for a mutation
// this binary does not know.
func HooksFromGrid(build func() sweep.Grid) Hooks {
	return func(_ string, g *sweep.Grid) error {
		ref := build()
		g.Drive = ref.Drive
		for i := range g.Overrides {
			name := g.Overrides[i].Name
			found := false
			for _, ov := range ref.Overrides {
				if ov.Name == name {
					g.Overrides[i].Apply = ov.Apply
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("distrib: override %q not in the reference grid", name)
			}
		}
		return nil
	}
}
