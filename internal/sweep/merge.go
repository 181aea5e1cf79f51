// The merge: recombining partial summaries produced by shard runs (and
// carried between processes as WriteJSON documents) into the full-grid
// summary. Merge validates provenance before it folds — same plan
// fingerprint, no overlapping cells, no missing cells — and the result is
// byte-identical to a single-process run of the whole grid in every
// encoding, because it goes through the same Reduce the single-process
// path uses.
package sweep

import (
	"fmt"
)

// MergeSummaries folds any number of partial summaries into one. Every
// part must carry the same non-empty plan fingerprint and total cell
// count, the parts' cells must not overlap, and together they must cover
// the whole plan; each violation is a descriptive error — never a silently
// short summary. Groups are refolded from the union of cells, so the
// merged summary is byte-identical to Run of the full grid for String(),
// CSV and JSON alike. Merging one complete summary is the identity.
func MergeSummaries(parts ...*Summary) (*Summary, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("sweep: merge of no summaries")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("sweep: merge part %d is nil", i)
		}
		if p.Fingerprint == "" {
			return nil, fmt.Errorf("sweep: merge part %d has no plan fingerprint — not a shard summary", i)
		}
		if p.TotalCells < 1 {
			return nil, fmt.Errorf("sweep: merge part %d declares %d total cells", i, p.TotalCells)
		}
		if p.Fingerprint != parts[0].Fingerprint {
			return nil, fmt.Errorf("sweep: merge part %d is from a different grid: fingerprint %s, want %s",
				i, p.Fingerprint, parts[0].Fingerprint)
		}
		if p.TotalCells != parts[0].TotalCells {
			return nil, fmt.Errorf("sweep: merge part %d declares %d total cells, want %d",
				i, p.TotalCells, parts[0].TotalCells)
		}
	}
	total := parts[0].TotalCells
	var all []CellResult
	seen := make(map[int]int, total) // global index -> part that brought it
	for pi, p := range parts {
		for _, cr := range p.Cells {
			idx := cr.Cell.Index
			if idx < 0 || idx >= total {
				return nil, fmt.Errorf("sweep: merge part %d holds cell index %d outside the %d-cell plan",
					pi, idx, total)
			}
			if prev, dup := seen[idx]; dup {
				return nil, fmt.Errorf("sweep: overlapping shards: cell %d (%s) appears in parts %d and %d",
					idx, cr.Cell.Label(), prev, pi)
			}
			seen[idx] = pi
			all = append(all, cr)
		}
	}
	if len(all) != total {
		var missing []int
		for i := 0; i < total && len(missing) < 8; i++ {
			if _, ok := seen[i]; !ok {
				missing = append(missing, i)
			}
		}
		return nil, fmt.Errorf("sweep: missing shard: %d of %d cells absent (first missing indices %v)",
			total-len(all), total, missing)
	}
	sum := Reduce(all)
	sum.Fingerprint = parts[0].Fingerprint
	sum.TotalCells = total
	return sum, nil
}
