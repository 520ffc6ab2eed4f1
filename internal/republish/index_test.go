package republish

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/synth"
)

// diagTable builds an id/age/diag snapshot with one row per sensitive value
// listed, ids p0, p1, ... in order.
func diagTable(t *testing.T, diags ...string) *dataset.Table {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "id", Kind: dataset.Identifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "diag", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	rows := make([]dataset.Row, len(diags))
	for i, d := range diags {
		rows[i] = dataset.Row{fmt.Sprintf("p%d", i), strconv.Itoa(20 + i), d}
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestPartitionFreshDeterministic is the regression test for residual
// placement: with m=3 and values a×4, b×4, c×1, the a and b residuals both
// join the one {a,b,c} bucket, and their order — hence the QIT row order and
// fingerprint — used to follow map iteration. Unplaceable residuals must
// likewise always name the same value.
func TestPartitionFreshDeterministic(t *testing.T) {
	snap := diagTable(t, "a", "a", "a", "a", "b", "b", "b", "b", "c")
	qits, sts := map[string]bool{}, map[string]bool{}
	for i := 0; i < 50; i++ {
		pub, err := NewPublisher(Config{M: 3, ID: "id"})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := pub.Publish(snap)
		if err != nil {
			t.Fatal(err)
		}
		qits[rel.QIT.Fingerprint()] = true
		sts[rel.ST.Fingerprint()] = true
	}
	if len(qits) != 1 || len(sts) != 1 {
		t.Fatalf("50 publishes of one snapshot gave %d QIT and %d ST fingerprints, want 1 each", len(qits), len(sts))
	}

	// a, b, c pair off twice; d and e are both left over with no bucket.
	unplaceable := diagTable(t, "a", "a", "b", "b", "c", "c", "d", "e")
	for i := 0; i < 50; i++ {
		pub, _ := NewPublisher(Config{M: 3, ID: "id"})
		_, err := pub.Publish(unplaceable)
		if !errors.Is(err, ErrEligibility) || !strings.Contains(err.Error(), `value "d"`) {
			t.Fatalf("run %d: error = %v, want the eligibility violation naming \"d\"", i, err)
		}
	}
}

// TestIndexCheckMatchesCheckInvariance feeds single-violation chains to both
// checkers: the incremental check of the last release against the index of
// the ones before must give CheckInvariance's verdict and detail.
func TestIndexCheckMatchesCheckInvariance(t *testing.T) {
	a := &Release{Version: 1, Signatures: map[string][]string{"p1": {"flu", "hiv"}, "p2": {"flu", "hiv"}}}
	drift := &Release{Version: 2, Signatures: map[string][]string{"p1": {"flu", "cancer"}, "p2": {"hiv", "flu"}}}
	thin := &Release{Version: 2, Signatures: map[string][]string{"p1": {"flu", "hiv"}, "p3": {"flu", "flu"}}}
	same := &Release{Version: 2, Signatures: map[string][]string{"p1": {"hiv", "flu"}, CounterfeitValue: {"x"}}}
	for _, tc := range []struct {
		name string
		next *Release
		ok   bool
	}{{"drift", drift, false}, {"thin", thin, false}, {"reordered", same, true}} {
		t.Run(tc.name, func(t *testing.T) {
			pub, err := Restore(Config{M: 2, ID: "id"}, []*Release{a})
			if err != nil {
				t.Fatal(err)
			}
			ok, detail := pub.Index().Check(tc.next, 2)
			wantOK, wantDetail, err := CheckInvariance([]*Release{a, tc.next}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || detail != wantDetail || ok != tc.ok {
				t.Fatalf("Check = %v %q, CheckInvariance = %v %q (want ok=%v)", ok, detail, wantOK, wantDetail, tc.ok)
			}
		})
	}
}

// sequence is a seeded population history over the hospital microdata:
// individuals join, leave, and occasionally change their diagnosis.
type sequence struct {
	rng    *rand.Rand
	pool   *dataset.Table
	next   int
	live   []int          // pool rows currently present, in arrival order
	diag   map[int]string // diagnosis overrides by pool row
	diags  []string
	counts struct{ deleted, changed int }
}

func newSequence(seed int64, poolSize int) *sequence {
	return &sequence{
		rng:   rand.New(rand.NewSource(seed)),
		pool:  synth.Hospital(poolSize, seed),
		diag:  map[int]string{},
		diags: synth.HospitalDiagnoses(),
	}
}

// step moves the population one generation and returns its snapshot.
func (s *sequence) step(t *testing.T, grow int) *dataset.Table {
	t.Helper()
	if len(s.live) > 0 && s.rng.Intn(10) < 4 {
		for n := 1 + s.rng.Intn(5); n > 0 && len(s.live) > 1; n-- {
			i := s.rng.Intn(len(s.live))
			s.live = append(s.live[:i], s.live[i+1:]...)
			s.counts.deleted++
		}
	}
	diagCol, _ := s.pool.Schema().Index("diagnosis")
	diagOf := func(r int) string {
		if d, ok := s.diag[r]; ok {
			return d
		}
		v, _ := s.pool.Value(r, diagCol)
		return v
	}
	// Now and then everyone with one diagnosis leaves at once, so every
	// bucket whose signature holds it needs counterfeit padding.
	if len(s.live) > 100 && s.rng.Intn(10) < 2 {
		gone := s.diags[s.rng.Intn(len(s.diags))]
		kept := s.live[:0]
		for _, r := range s.live {
			if diagOf(r) == gone {
				s.counts.deleted++
				continue
			}
			kept = append(kept, r)
		}
		s.live = kept
	}
	if len(s.live) > 0 && s.rng.Intn(10) < 3 {
		s.diag[s.live[s.rng.Intn(len(s.live))]] = s.diags[s.rng.Intn(len(s.diags))]
		s.counts.changed++
	}
	for ; grow > 0; grow-- {
		s.live = append(s.live, s.next)
		s.next++
	}
	rows := make([]dataset.Row, len(s.live))
	for i, r := range s.live {
		row, err := s.pool.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		row[diagCol] = diagOf(r)
		rows[i] = row
	}
	tbl, err := dataset.FromRows(s.pool.Schema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestIncrementalMatchesRestoreOracle is the oracle for incremental
// reconciliation: over a seeded history of joins, departures, diagnosis
// changes and counterfeit padding at m=3, publishing each generation from the
// previous generation's index and checking only the new release must match
// the whole-history path — Restore over every earlier release rebuilt from its
// tables, Publish, and CheckInvariance across the chain — on every QIT/ST
// fingerprint, verdict and error, and the indexes must agree.
func TestIncrementalMatchesRestoreOracle(t *testing.T) {
	cfg := Config{M: 3, ID: "name"}
	seq := newSequence(11, 1800)
	var idx *Index
	var history []*Release
	counterfeits, landed := 0, 0
	for gen := 1; gen <= 28; gen++ {
		grow := 20 + seq.rng.Intn(40)
		if gen == 1 {
			grow = 150
		}
		snap := seq.step(t, grow)

		oracle, err := Restore(cfg, history)
		if err != nil {
			t.Fatalf("gen %d: oracle restore: %v", gen, err)
		}
		want, wantErr := oracle.Publish(snap)

		inc, err := Resume(cfg, idx)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := inc.Publish(snap)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("gen %d: incremental error %v, oracle error %v", gen, gotErr, wantErr)
		}
		if wantErr != nil {
			continue // an ineligible generation lands nothing on either path
		}
		if got.Version != want.Version || got.QIT.Fingerprint() != want.QIT.Fingerprint() || got.ST.Fingerprint() != want.ST.Fingerprint() {
			t.Fatalf("gen %d: incremental release v%d %s/%s, oracle v%d %s/%s", gen,
				got.Version, got.QIT.Fingerprint(), got.ST.Fingerprint(),
				want.Version, want.QIT.Fingerprint(), want.ST.Fingerprint())
		}
		base := idx
		if base == nil {
			base = newIndex()
		}
		ok, detail := base.Check(got, cfg.M)
		wantOK, wantDetail, err := CheckInvariance(oracle.Releases(), cfg.M)
		if err != nil {
			t.Fatal(err)
		}
		if ok != wantOK || detail != wantDetail {
			t.Fatalf("gen %d: incremental verdict %v %q, oracle %v %q", gen, ok, detail, wantOK, wantDetail)
		}
		if !ok {
			t.Fatalf("gen %d: history not 3-invariant: %s", gen, detail)
		}

		rebuilt, err := ReleaseFromTables(want.Version, want.QIT, want.ST)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, rebuilt)
		idx = inc.Index()
		restored, err := Restore(cfg, history)
		if err != nil {
			t.Fatalf("gen %d: restore of the grown history: %v", gen, err)
		}
		assertSameIndex(t, gen, idx, restored.Index())
		counterfeits += got.Counterfeits
		landed++
	}
	if landed < 20 {
		t.Fatalf("only %d generations landed, want >= 20", landed)
	}
	if counterfeits == 0 || seq.counts.deleted == 0 || seq.counts.changed == 0 {
		t.Fatalf("sequence too tame: %d counterfeits, %d departures, %d diagnosis changes",
			counterfeits, seq.counts.deleted, seq.counts.changed)
	}
}

// assertSameIndex compares two indexes by content: version, and every
// individual's fixed signature as a value multiset.
func assertSameIndex(t *testing.T, gen int, got, want *Index) {
	t.Helper()
	if got.Version() != want.Version() || len(got.ids) != len(want.ids) {
		t.Fatalf("gen %d: index v%d with %d individuals, restored v%d with %d", gen,
			got.Version(), len(got.ids), want.Version(), len(want.ids))
	}
	for id, s := range want.ids {
		g, ok := got.ids[id]
		if !ok || !equalSignature(got.sigs[g], want.sigs[s]) {
			t.Fatalf("gen %d: %s fixed to %v incrementally, %v by Restore", gen, id, got.sigs[g], want.sigs[s])
		}
	}
}

// TestResumeLeavesIndexUntouched publishes and checks from one committed
// index in several goroutines at once — as overlapping reconciliations, or a
// release that never lands and its retry, would — and expects identical
// releases and an unchanged base index. Under -race it also shows the index
// is only read.
func TestResumeLeavesIndexUntouched(t *testing.T) {
	full := synth.Hospital(600, 4)
	cfg := Config{M: 3, ID: "name"}
	pub, err := NewPublisher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(snapshotAt(t, full, 300)); err != nil {
		t.Fatal(err)
	}
	base := pub.Index()
	individuals := len(base.ids)
	snap := snapshotAt(t, full, 600)
	fps := make([]string, 4)
	var wg sync.WaitGroup
	for i := range fps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := Resume(cfg, base)
			if err != nil {
				t.Error(err)
				return
			}
			rel, err := p.Publish(snap)
			if err != nil {
				t.Error(err)
				return
			}
			if ok, detail := base.Check(rel, cfg.M); !ok {
				t.Errorf("resumed release fails the check: %s", detail)
			}
			if rel.Version != 2 || p.Index().Version() != 2 || len(p.Index().ids) != 600 {
				t.Errorf("resumed release v%d, index v%d with %d individuals", rel.Version, p.Index().Version(), len(p.Index().ids))
			}
			fps[i] = rel.QIT.Fingerprint() + rel.ST.Fingerprint()
		}(i)
	}
	wg.Wait()
	for _, fp := range fps[1:] {
		if fp != fps[0] {
			t.Fatal("publishes from one index differ")
		}
	}
	if base.Version() != 1 || len(base.ids) != individuals {
		t.Fatalf("base index moved to v%d with %d individuals", base.Version(), len(base.ids))
	}
}
