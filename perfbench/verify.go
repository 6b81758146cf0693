package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"hsqp/internal/bench"
	"hsqp/internal/ref"
	"hsqp/internal/storage"
)

// digest is the SHA-256 of a result's canonical rows: every row
// wire-encoded and the encodings sorted, so row order (which depends on
// scheduling) does not change it.
type digest [32]byte

func digestOf(b *storage.Batch) digest { return sha256.Sum256(bench.CanonicalRows(b)) }

// matchRef compares an engine result against the reference interpreter's
// rows as a multiset of formatted rows.
func matchRef(got *storage.Batch, want *ref.Result) error {
	if got.Rows() != len(want.Rows) {
		return fmt.Errorf("%d rows, reference has %d", got.Rows(), len(want.Rows))
	}
	g := make([]string, got.Rows())
	for i := range g {
		g[i] = formatRow(got.Row(i))
	}
	w := make([]string, len(want.Rows))
	for i := range w {
		w[i] = formatRow(want.Rows[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %d (canonical order) differs\n  got:  %s\n  want: %s", i, g[i], w[i])
		}
	}
	return nil
}

func formatRow(vals []any) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		if v == nil {
			parts[i] = "∅"
		} else {
			parts[i] = fmt.Sprintf("%v", v)
		}
	}
	return strings.Join(parts, "|")
}
