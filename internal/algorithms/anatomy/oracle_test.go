package anatomy

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/synth"
)

// buildTablesOracle is the row-at-a-time QIT/ST builder the coded one
// replaced, kept as the differential-test oracle: it copies every member
// row's QI cells, group by group, and appends the group id as a string.
func buildTablesOracle(t *dataset.Table, qi []string, sensitive string, groups []Group) (*dataset.Table, *dataset.Table, error) {
	qiAttrs := make([]dataset.Attribute, 0, len(qi)+1)
	for _, a := range qi {
		attr, err := t.Schema().ByName(a)
		if err != nil {
			return nil, nil, err
		}
		qiAttrs = append(qiAttrs, attr)
	}
	qiAttrs = append(qiAttrs, dataset.Attribute{Name: "group", Kind: dataset.Insensitive, Type: dataset.Numeric})
	qitSchema, err := dataset.NewSchema(qiAttrs...)
	if err != nil {
		return nil, nil, err
	}
	var rows []dataset.Row
	for _, g := range groups {
		id := strconv.Itoa(g.ID)
		for _, r := range g.Rows {
			row, err := t.Row(r)
			if err != nil {
				return nil, nil, err
			}
			out := make(dataset.Row, 0, len(qi)+1)
			for _, a := range qi {
				out = append(out, row[t.Schema().MustIndex(a)])
			}
			rows = append(rows, append(out, id))
		}
	}
	qit, err := dataset.FromRows(qitSchema, rows)
	if err != nil {
		return nil, nil, err
	}

	stSchema, err := dataset.NewSchema(
		dataset.Attribute{Name: "group", Kind: dataset.Insensitive, Type: dataset.Numeric},
		dataset.Attribute{Name: sensitive, Kind: dataset.Sensitive, Type: dataset.Categorical},
		dataset.Attribute{Name: "count", Kind: dataset.Insensitive, Type: dataset.Numeric},
	)
	if err != nil {
		return nil, nil, err
	}
	var stRows []dataset.Row
	for _, g := range groups {
		values := make([]string, 0, len(g.Counts))
		for v := range g.Counts {
			values = append(values, v)
		}
		sort.Strings(values)
		for _, v := range values {
			stRows = append(stRows, dataset.Row{strconv.Itoa(g.ID), v, strconv.Itoa(g.Counts[v])})
		}
	}
	st, err := dataset.FromRows(stSchema, stRows)
	if err != nil {
		return nil, nil, err
	}
	return qit, st, nil
}

// estimateCountOracle is EstimateCount over row copies of the QIT.
func estimateCountOracle(r *Result, pred func(qi []string) bool, sensitiveValue string) float64 {
	est := 0.0
	rowIdx := 0
	for _, g := range r.Groups {
		matched := 0
		for range g.Rows {
			row, _ := r.QIT.Row(rowIdx)
			rowIdx++
			if pred(row[:len(r.QuasiIdentifiers)]) {
				matched++
			}
		}
		if matched > 0 {
			est += float64(matched) * float64(g.Counts[sensitiveValue]) / float64(len(g.Rows))
		}
	}
	return est
}

// TestTablesMatchOracle: for every fixture, the released QIT and ST are
// byte-identical (CSV and fingerprint) to the row-built oracle over the
// same groups, every group's rows carry its sensitive histogram, and count
// estimates agree with the row-copy estimator.
func TestTablesMatchOracle(t *testing.T) {
	census, _ := synth.Census(700, 2).DropIdentifiers()
	hospital, _ := synth.Hospital(700, 2).DropIdentifiers()
	cases := []struct {
		tbl *dataset.Table
		cfg Config
	}{
		{hospital, Config{L: 2}},
		{hospital, Config{L: 4, QuasiIdentifiers: []string{"zip", "age"}}},
		{census, Config{L: 3, Sensitive: "occupation"}},
		{census, Config{L: 6, Sensitive: "occupation", QuasiIdentifiers: []string{"sex"}}},
		{hospital.Sample(37, rand.New(rand.NewSource(3))), Config{L: 2}},
	}
	for _, c := range cases {
		name := fmt.Sprintf("n=%d/l=%d/qi=%v/%s", c.tbl.Len(), c.cfg.L, c.cfg.QuasiIdentifiers, c.cfg.Sensitive)
		t.Run(name, func(t *testing.T) {
			res, err := Anonymize(c.tbl, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			qit, st, err := buildTablesOracle(c.tbl, res.QuasiIdentifiers, res.Sensitive, res.Groups)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []struct {
				name      string
				got, want *dataset.Table
			}{{"QIT", res.QIT, qit}, {"ST", res.ST, st}} {
				if !bytes.Equal(csvBytes(t, p.got), csvBytes(t, p.want)) {
					t.Errorf("%s CSV differs from the row-built oracle", p.name)
				}
				if p.got.Fingerprint() != p.want.Fingerprint() {
					t.Errorf("%s fingerprint %s, oracle %s", p.name, p.got.Fingerprint(), p.want.Fingerprint())
				}
				if !p.got.Schema().Equal(p.want.Schema()) {
					t.Errorf("%s schema %v, oracle %v", p.name, p.got.Schema().Attributes(), p.want.Schema().Attributes())
				}
			}
			sens := c.tbl.Schema().MustIndex(res.Sensitive)
			for _, g := range res.Groups {
				counts := map[string]int{}
				for _, r := range g.Rows {
					v, _ := c.tbl.Value(r, sens)
					counts[v]++
				}
				if fmt.Sprint(counts) != fmt.Sprint(g.Counts) {
					t.Fatalf("group %d counts %v, rows hold %v", g.ID, g.Counts, counts)
				}
			}
			values, _ := c.tbl.Domain(res.Sensitive)
			for col := range res.QuasiIdentifiers {
				first, _ := res.QIT.Value(0, col)
				pred := func(qi []string) bool { return qi[col] == first }
				for _, v := range values {
					if got, want := res.EstimateCount(pred, v), estimateCountOracle(res, pred, v); got != want {
						t.Errorf("EstimateCount(col %d = %q, %q) = %v, oracle %v", col, first, v, got, want)
					}
				}
			}
		})
	}
}

func csvBytes(t *testing.T, tbl *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
