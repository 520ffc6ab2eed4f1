package republish

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/synth"
)

// snapshotAt returns the first n rows of the hospital table as the table
// state at one publication time.
func snapshotAt(t *testing.T, full *dataset.Table, n int) *dataset.Table {
	t.Helper()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	snap, err := full.Select(idx)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestNewPublisherValidation(t *testing.T) {
	if _, err := NewPublisher(Config{M: 1, ID: "name"}); !errors.Is(err, ErrConfig) {
		t.Errorf("m=1 error = %v", err)
	}
	if _, err := NewPublisher(Config{M: 2}); !errors.Is(err, ErrConfig) {
		t.Errorf("missing id error = %v", err)
	}
	if _, err := NewPublisher(Config{M: 2, ID: "name"}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSequentialReleasesAreMInvariant(t *testing.T) {
	full := synth.Hospital(900, 1)
	pub, err := NewPublisher(Config{M: 3, ID: "name"})
	if err != nil {
		t.Fatal(err)
	}
	var releases []*Release
	for _, n := range []int{300, 600, 900} {
		rel, err := pub.Publish(snapshotAt(t, full, n))
		if err != nil {
			t.Fatalf("publish at %d rows: %v", n, err)
		}
		releases = append(releases, rel)
		// Every bucket in the ST exposes at least m distinct values.
		perBucket := make(map[string]map[string]bool)
		for i := 0; i < rel.ST.Len(); i++ {
			row, _ := rel.ST.Row(i)
			if perBucket[row[0]] == nil {
				perBucket[row[0]] = make(map[string]bool)
			}
			perBucket[row[0]][row[1]] = true
		}
		for b, values := range perBucket {
			if len(values) < 3 {
				t.Errorf("release %d bucket %s has %d distinct sensitive values", rel.Version, b, len(values))
			}
		}
		if rel.QIT.Len() < n {
			t.Errorf("release %d QIT has %d rows for %d individuals", rel.Version, rel.QIT.Len(), n)
		}
	}
	ok, why, err := CheckInvariance(releases, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("releases are not 3-invariant: %s", why)
	}
	if len(pub.Releases()) != 3 {
		t.Errorf("Releases() = %d", len(pub.Releases()))
	}
}

func TestIntersectionAttackBlocked(t *testing.T) {
	full := synth.Hospital(600, 2)
	pub, err := NewPublisher(Config{M: 2, ID: "name"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := pub.Publish(snapshotAt(t, full, 300))
	if err != nil {
		t.Fatal(err)
	}
	second, err := pub.Publish(snapshotAt(t, full, 600))
	if err != nil {
		t.Fatal(err)
	}
	disclosed, avg := IntersectionAttack(first, second)
	if disclosed > 0 {
		t.Errorf("intersection attack discloses %.3f of shared individuals under m-invariance", disclosed)
	}
	if avg < 2 {
		t.Errorf("average intersection size %.2f below m", avg)
	}
}

func TestIntersectionAttackSucceedsWithoutInvariance(t *testing.T) {
	// Construct two hand-made releases where an individual's bucket changes
	// signature; the intersection shrinks to one value.
	a := &Release{Version: 1, Signatures: map[string][]string{"p1": {"flu", "hiv"}}}
	b := &Release{Version: 2, Signatures: map[string][]string{"p1": {"flu", "cancer"}}}
	disclosed, avg := IntersectionAttack(a, b)
	if disclosed != 1 {
		t.Errorf("disclosed = %v, want 1", disclosed)
	}
	if avg != 1 {
		t.Errorf("avg intersection = %v, want 1", avg)
	}
	ok, why, err := CheckInvariance([]*Release{a, b}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("CheckInvariance accepted signature change")
	}
	if why == "" {
		t.Error("CheckInvariance should explain the violation")
	}
	// No shared individuals.
	if d, g := IntersectionAttack(a, &Release{Version: 3, Signatures: map[string][]string{}}); d != 0 || g != 0 {
		t.Errorf("empty intersection attack = %v, %v", d, g)
	}
}

func TestCheckInvarianceParameters(t *testing.T) {
	if _, _, err := CheckInvariance(nil, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("m=1 error = %v", err)
	}
	weak := &Release{Version: 1, Signatures: map[string][]string{"p": {"flu"}}}
	ok, why, err := CheckInvariance([]*Release{weak}, 2)
	if err != nil || ok || why == "" {
		t.Errorf("thin signature accepted: %v %q %v", ok, why, err)
	}
}

func TestPublishErrors(t *testing.T) {
	full := synth.Hospital(100, 3)
	pub, _ := NewPublisher(Config{M: 3, ID: "missing-column"})
	if _, err := pub.Publish(full); !errors.Is(err, ErrUnknownID) {
		t.Errorf("missing id column error = %v", err)
	}
	// A snapshot with a single sensitive value cannot be partitioned.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "id", Kind: dataset.Identifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "diag", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	var rows []dataset.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, dataset.Row{fmt.Sprintf("p%d", i), strconv.Itoa(20 + i), "flu"})
	}
	tbl, err := dataset.FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	pub2, _ := NewPublisher(Config{M: 2, ID: "id"})
	if _, err := pub2.Publish(tbl); !errors.Is(err, ErrEligibility) {
		t.Errorf("single-value snapshot error = %v", err)
	}
	// No sensitive column at all.
	plain := dataset.MustSchema(
		dataset.Attribute{Name: "id", Kind: dataset.Identifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
	)
	pt, _ := dataset.FromRows(plain, []dataset.Row{{"p1", "30"}})
	pub3, _ := NewPublisher(Config{M: 2, ID: "id"})
	if _, err := pub3.Publish(pt); !errors.Is(err, ErrConfig) {
		t.Errorf("no sensitive column error = %v", err)
	}
}

func TestCounterfeitsKeepSignaturesStable(t *testing.T) {
	// Build a snapshot where one individual's signature partner value never
	// reappears in the second snapshot, forcing a counterfeit.
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "id", Kind: dataset.Identifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "diag", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	first, _ := dataset.FromRows(schema, []dataset.Row{
		{"p1", "30", "flu"},
		{"p2", "31", "hiv"},
		{"p3", "40", "cancer"},
		{"p4", "41", "asthma"},
	})
	// p2 (hiv) leaves; p1 stays; newcomers all share p1's other bucket values.
	second, _ := dataset.FromRows(schema, []dataset.Row{
		{"p1", "30", "flu"},
		{"p3", "40", "cancer"},
		{"p4", "41", "asthma"},
		{"p5", "50", "flu"},
		{"p6", "51", "cancer"},
	})
	pub, err := NewPublisher(Config{M: 2, ID: "id"})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pub.Publish(first)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pub.Publish(second)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Counterfeits == 0 {
		t.Error("expected at least one counterfeit record when a signature partner disappears")
	}
	ok, why, err := CheckInvariance([]*Release{r1, r2}, 2)
	if err != nil || !ok {
		t.Errorf("releases not 2-invariant: %q %v", why, err)
	}
	disclosed, _ := IntersectionAttack(r1, r2)
	if disclosed > 0 {
		t.Errorf("intersection attack disclosed %.2f despite counterfeits", disclosed)
	}
}

// TestBucketNumberingIgnoresMapOrder publishes a two-release history whose
// two signatures, {"a\x1fb", "c"} and {"a", "b\x1fc"}, join to the same
// string under a 0x1f separator. Bucket numbers must come from the
// signature values themselves, so every fresh publisher releases the same
// bytes, whatever order it meets its buckets in.
func TestBucketNumberingIgnoresMapOrder(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "name", Kind: dataset.Identifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "zip", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "diagnosis", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	first := []dataset.Row{{"p1", "z1", "a\x1fb"}, {"p2", "z2", "c"}}
	second := append(slices.Clone(first), dataset.Row{"p3", "z3", "a"}, dataset.Row{"p4", "z4", "b\x1fc"})
	tables := make([]*dataset.Table, 2)
	for i, rows := range [][]dataset.Row{first, second} {
		tbl, err := dataset.FromRows(schema, rows)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	pairs := map[[2]string]bool{}
	for range 200 {
		pub, err := NewPublisher(Config{M: 2, ID: "name"})
		if err != nil {
			t.Fatal(err)
		}
		var rel *Release
		for _, tbl := range tables {
			if rel, err = pub.Publish(tbl); err != nil {
				t.Fatal(err)
			}
		}
		pairs[[2]string{rel.QIT.Fingerprint(), rel.ST.Fingerprint()}] = true
	}
	if len(pairs) != 1 {
		t.Fatalf("200 fresh publishers released %d distinct QIT/ST pairs, want 1", len(pairs))
	}
}
