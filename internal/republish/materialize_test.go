package republish

import (
	"context"
	"slices"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
)

// rowQIT is the row-built reference for plan.qit: every QIT row is copied
// out of the snapshot as strings (counterfeits as SuppressedValue cells and
// CounterfeitValue) and the table is encoded by dataset.FromRows.
func rowQIT(t *testing.T, pl *plan, snapshot *dataset.Table) *dataset.Table {
	t.Helper()
	cols := make([]*dataset.CodedColumn, len(pl.qi))
	for j, a := range pl.qi {
		cc, err := snapshot.CodedColumnByName(a)
		if err != nil {
			t.Fatal(err)
		}
		cols[j] = cc
	}
	idCol, err := snapshot.CodedColumnByName(pl.id)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]dataset.Row, len(pl.rows))
	for i, r := range pl.rows {
		out := make(dataset.Row, 0, len(pl.qi)+2)
		for _, cc := range cols {
			if r < 0 {
				out = append(out, dataset.SuppressedValue)
			} else {
				out = append(out, cc.Dict[cc.Codes[r]])
			}
		}
		id := CounterfeitValue
		if r >= 0 {
			id = idCol.Dict[idCol.Codes[r]]
		}
		rows[i] = append(out, pl.bucketNames[pl.buckets[i]], id)
	}
	tbl, err := dataset.FromRows(pl.qitSchema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestQITMatchesRowOracle is the differential test of the coded QIT build:
// over the pinned census history and a seeded hospital history, every
// published QIT must equal the row-built reference over the same plan,
// column by column in dictionary and codes, and in fingerprint.
func TestQITMatchesRowOracle(t *testing.T) {
	histories := map[string][]*dataset.Table{"census": censusHistory(t)}
	seq := newSequence(5, 1500)
	for gen := 0; gen < 8; gen++ {
		histories["hospital"] = append(histories["hospital"], seq.step(t, 150))
	}
	configs := map[string][]Config{"census": nil, "hospital": {{M: 3, ID: "name"}}}
	for _, oc := range oracleConfigs {
		configs["census"] = append(configs["census"], oc.cfg)
	}
	for name, history := range histories {
		for _, cfg := range configs[name] {
			pub, err := NewPublisher(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for gen, snap := range history {
				pl, err := pub.plan(context.Background(), snap)
				if err != nil {
					t.Fatalf("%s m=%d gen %d: %v", name, cfg.M, gen, err)
				}
				rel, err := pub.Publish(snap)
				if err != nil {
					t.Fatal(err)
				}
				want := rowQIT(t, pl, snap)
				for j := 0; j < want.Schema().Len(); j++ {
					g, _ := rel.QIT.CodedColumn(j)
					w, _ := want.CodedColumn(j)
					if !slices.Equal(g.Dict, w.Dict) || !slices.Equal(g.Codes, w.Codes) {
						t.Fatalf("%s m=%d gen %d: QIT column %q differs from the row-built reference",
							name, cfg.M, gen, want.Schema().Names()[j])
					}
				}
				if g, w := rel.QIT.Fingerprint(), want.Fingerprint(); g != w {
					t.Fatalf("%s m=%d gen %d: QIT fingerprint %s, reference %s", name, cfg.M, gen, g, w)
				}
			}
		}
	}
}
