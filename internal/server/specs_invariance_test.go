package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/republish"
	"github.com/ppdp/ppdp/internal/synth"
)

// hospitalPopulation is a seeded population over the hospital microdata that
// changes every generation: newcomers arrive, and now and then individuals
// leave, everyone with one diagnosis leaves at once (forcing counterfeit
// padding), or one individual's diagnosis changes.
type hospitalPopulation struct {
	rng   *rand.Rand
	pool  *dataset.Table
	next  int
	live  []int
	diag  map[int]string
	diags []string
	col   int
}

func newHospitalPopulation(t testing.TB, seed int64, size int) *hospitalPopulation {
	pool := synth.Hospital(size, seed)
	col, err := pool.Schema().Index("diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	return &hospitalPopulation{rng: rand.New(rand.NewSource(seed)), pool: pool,
		diag: map[int]string{}, diags: synth.HospitalDiagnoses(), col: col}
}

func (p *hospitalPopulation) diagnosis(r int) string {
	if d, ok := p.diag[r]; ok {
		return d
	}
	v, _ := p.pool.Value(r, p.col)
	return v
}

// step advances one generation. It returns the CSV of the whole population
// and, when the generation only added rows, the CSV of the newcomers alone.
func (p *hospitalPopulation) step(t testing.TB, grow int) (full, added []byte) {
	t.Helper()
	growOnly := true
	if len(p.live) > 0 && p.rng.Intn(10) < 3 {
		for n := 1 + p.rng.Intn(5); n > 0; n-- {
			i := p.rng.Intn(len(p.live))
			p.live = append(p.live[:i], p.live[i+1:]...)
		}
		growOnly = false
	}
	if len(p.live) > 100 && p.rng.Intn(10) < 2 {
		gone := p.diags[p.rng.Intn(len(p.diags))]
		kept := p.live[:0]
		for _, r := range p.live {
			if p.diagnosis(r) != gone {
				kept = append(kept, r)
			}
		}
		p.live = kept
		growOnly = false
	}
	if len(p.live) > 0 && p.rng.Intn(10) < 3 {
		p.diag[p.live[p.rng.Intn(len(p.live))]] = p.diags[p.rng.Intn(len(p.diags))]
		growOnly = false
	}
	first := len(p.live)
	for ; grow > 0; grow-- {
		p.live = append(p.live, p.next)
		p.next++
	}
	full = p.csv(t, p.live)
	if growOnly && first > 0 {
		added = p.csv(t, p.live[first:])
	}
	return full, added
}

func (p *hospitalPopulation) csv(t testing.TB, rows []int) []byte {
	t.Helper()
	out := make([]dataset.Row, len(rows))
	for i, r := range rows {
		row, err := p.pool.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		row[p.col] = p.diagnosis(r)
		out[i] = row
	}
	tbl, err := dataset.FromRows(p.pool.Schema(), out)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// specSettledOrStuck matches a spec that either reconciled the generation or
// keeps failing on it: retries counts failed attempts, and given the count
// read after the generation was stored, two more failures mean at least one
// attempt ran on the new generation.
func specSettledOrStuck(gen int, retriesBefore float64) func(map[string]any) bool {
	return func(b map[string]any) bool {
		if specSettled(gen)(b) {
			return true
		}
		retries, _ := b["retries"].(float64)
		return b["state"] == "backoff" && retries >= retriesBefore+2
	}
}

// invarianceOracle replays the whole-history reconciliation every landed
// release used to go through: Restore over all earlier releases rebuilt from
// their tables, Publish of the dataset snapshot, CheckInvariance across the
// chain.
type invarianceOracle struct {
	cfg     republish.Config
	history []*republish.Release
}

func (o *invarianceOracle) next(snapshot *dataset.Table) (*republish.Release, bool, string, error) {
	pub, err := republish.Restore(o.cfg, o.history)
	if err != nil {
		return nil, false, "", err
	}
	rel, err := pub.Publish(snapshot)
	if err != nil {
		return nil, false, "", err
	}
	ok, detail, err := republish.CheckInvariance(pub.Releases(), o.cfg.M)
	return rel, ok, detail, err
}

// runInvarianceSequence drives an m=3 spec through gens generations of a
// seeded hospital population on a durable server, restarting it after
// generation restartAt (0: never). Every generation's outcome is compared
// with the oracle: the landed release's QIT/ST fingerprints, the history
// entry, invariant and invariant_detail, or the error of an ineligible
// generation. It returns the landed fingerprints in order.
func runInvarianceSequence(t *testing.T, gens, restartAt int) []string {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 2,
		ReconcileBackoff: 5 * time.Millisecond, ReconcileBackoffMax: 50 * time.Millisecond}
	ts, srv := bootPersistent(t, cfg)
	pop := newHospitalPopulation(t, 5, 2500)
	oracle := &invarianceOracle{cfg: republish.Config{M: 3, ID: "name"}}
	var landed []string
	counterfeits, appends, replaces := 0, 0, 0
	for gen := 1; gen <= gens; gen++ {
		grow := 20 + pop.rng.Intn(40)
		if gen == 1 {
			grow = 200
		}
		full, added := pop.step(t, grow)
		switch {
		case gen == 1:
			if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/pop?family=hospital", full); status != http.StatusCreated {
				t.Fatalf("upload: %d %v", status, body)
			}
			if status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
				"name": "seq", "dataset": "pop", "algorithm": "republish",
				"policy": map[string]any{"criteria": []map[string]any{
					{"type": "m-invariance", "m": 3, "id": "name"},
				}}}); status != http.StatusCreated {
				t.Fatalf("create spec: %d %v", status, body)
			}
		case added != nil:
			appends++
			if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/pop/rows", added); status != http.StatusOK {
				t.Fatalf("gen %d append: %d %v", gen, status, body)
			}
		default:
			replaces++
			if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/pop?family=hospital", full); status != http.StatusOK && status != http.StatusCreated {
				t.Fatalf("gen %d replace: %d %v", gen, status, body)
			}
		}
		_, cur := doJSON(t, "GET", ts.URL+"/v1/specs/seq", nil)
		retries, _ := cur["retries"].(float64)
		body := pollSpec(t, ts, "seq", specSettledOrStuck(gen, retries))
		ds, err := srv.reg.datasets.get("pop")
		if err != nil || ds.Generation != uint64(gen) {
			t.Fatalf("gen %d: dataset %v generation %d", gen, err, ds.Generation)
		}
		want, ok, detail, oracleErr := oracle.next(ds.table)
		if !specSettled(gen)(body) {
			if oracleErr == nil || !strings.Contains(body["last_error"].(string), oracleErr.Error()) {
				t.Fatalf("gen %d: spec stuck with %q, oracle error %v", gen, body["last_error"], oracleErr)
			}
			continue
		}
		if oracleErr != nil {
			t.Fatalf("gen %d: spec landed a release the oracle refuses: %v", gen, oracleErr)
		}
		stored, err := srv.reg.releases.get(body["release_id"].(string))
		if err != nil {
			t.Fatal(err)
		}
		qitFP, stFP := stored.release.QIT.Fingerprint(), stored.release.ST.Fingerprint()
		if qitFP != want.QIT.Fingerprint() || stFP != want.ST.Fingerprint() {
			t.Fatalf("gen %d: landed release %s/%s, oracle %s/%s", gen, qitFP, stFP, want.QIT.Fingerprint(), want.ST.Fingerprint())
		}
		inv, _ := body["invariant"].(map[string]any)
		gotDetail, _ := inv["detail"].(string)
		if inv == nil || inv["ok"] != ok || gotDetail != detail || !ok {
			t.Fatalf("gen %d: invariant %v, oracle ok=%v detail=%q", gen, body["invariant"], ok, detail)
		}
		run, err := srv.reg.specRunSnapshot("seq")
		if err != nil {
			t.Fatal(err)
		}
		h := run.History[len(run.History)-1]
		if wantH := (specHistoryMeta{Version: want.Version, QITFP: qitFP, STFP: stFP, Rows: want.QIT.Len(), Counterfeits: want.Counterfeits}); h != wantH {
			t.Fatalf("gen %d: history entry %+v, want %+v", gen, h, wantH)
		}
		rebuilt, err := republish.ReleaseFromTables(want.Version, stored.release.QIT, stored.release.ST)
		if err != nil {
			t.Fatal(err)
		}
		oracle.history = append(oracle.history, rebuilt)
		landed = append(landed, qitFP+"/"+stFP)
		counterfeits += want.Counterfeits

		if gen == restartAt {
			_, before := getRaw(t, ts.URL+"/v1/specs/seq", "")
			ts.Close()
			srv.Close()
			ts, srv = bootPersistent(t, cfg)
			pollSpec(t, ts, "seq", specSettled(gen))
			if _, after := getRaw(t, ts.URL+"/v1/specs/seq", ""); !bytes.Equal(before, after) {
				t.Fatalf("spec diverged across the restart:\n  before: %s\n  after:  %s", before, after)
			}
		}
	}
	if len(landed) < 20 || counterfeits == 0 || appends == 0 || replaces == 0 {
		t.Fatalf("sequence too tame: %d of %d generations landed (want >= 20), %d counterfeits, %d appends, %d replacements",
			len(landed), gens, counterfeits, appends, replaces)
	}
	t.Logf("%d of %d generations landed: %d counterfeits, %d appends, %d replacements", len(landed), gens, counterfeits, appends, replaces)
	return landed
}

// TestSpecMInvarianceIncrementalOracle is the oracle test for incremental
// reconciliation: across more than 20 generations with departures, a
// changed diagnosis, counterfeits and m=3, every release the live index
// publishes must equal the whole-history Restore + Publish + CheckInvariance
// path; and a restart partway through (whose first reconciliation restores
// the index from the stored tables) must continue byte-identically.
func TestSpecMInvarianceIncrementalOracle(t *testing.T) {
	straight := runInvarianceSequence(t, 30, 0)
	restarted := runInvarianceSequence(t, 30, 12)
	if fmt.Sprint(straight) != fmt.Sprint(restarted) {
		t.Fatalf("restart changed the release sequence:\n  straight:  %v\n  restarted: %v", straight, restarted)
	}
}

// bootSeqSpec boots a durable server, uploads chunks[0] of the census
// population, declares an m=2 spec over it and appends chunks[1:], waiting for
// each generation to land.
func bootSeqSpec(t *testing.T, cfg Config, chunks [][]byte) (*httptest.Server, *Server) {
	t.Helper()
	ts, srv := bootPersistent(t, cfg)
	if status, body := sendCSV(t, "PUT", ts.URL+"/v1/datasets/pop?family=census", chunks[0]); status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, body)
	}
	if status, body := doJSON(t, "POST", ts.URL+"/v1/specs", map[string]any{
		"name": "seq", "dataset": "pop", "algorithm": "republish",
		"policy": map[string]any{"criteria": []map[string]any{
			{"type": "m-invariance", "m": 2, "id": "name"},
		}}}); status != http.StatusCreated {
		t.Fatalf("create spec: %d %v", status, body)
	}
	pollSpec(t, ts, "seq", specSettled(1))
	for i, chunk := range chunks[1:] {
		if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/pop/rows", chunk); status != http.StatusOK {
			t.Fatalf("append %d: %d %v", i+1, status, body)
		}
		pollSpec(t, ts, "seq", specSettled(2+i))
	}
	return ts, srv
}

// TestSpecSwapPersistFailureKeepsIndex injects a spec journal failure into
// the swap of generation 3: the release must not land, the spec's history
// must not grow, and the live index must not advance (it is dropped, so the
// retry re-validates the stored history). The retry's release must equal a
// cold Restore of the stored history publishing the same snapshot.
func TestSpecSwapPersistFailureKeepsIndex(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), Workers: 2,
		ReconcileBackoff: 300 * time.Millisecond, ReconcileBackoffMax: time.Second}
	chunks := censusChunks(t, 200, 250, 300)
	ts, srv := bootSeqSpec(t, cfg, chunks[:2])
	before := pollSpec(t, ts, "seq", specSettled(2))

	srv.reg.failSpecPersist.Store(1)
	if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/pop/rows", chunks[2]); status != http.StatusOK {
		t.Fatalf("append: %d %v", status, body)
	}
	failed := pollSpec(t, ts, "seq", func(b map[string]any) bool {
		return b["state"] == "backoff"
	})
	if msg, _ := failed["last_error"].(string); !strings.Contains(msg, "injected") {
		t.Fatalf("last_error = %q, want the injected journal failure", msg)
	}
	if failed["release_id"] != before["release_id"] || len(failed["history"].([]any)) != 2 {
		t.Fatalf("failed swap moved the spec: release %v history %v", failed["release_id"], failed["history"])
	}
	run, err := srv.reg.specRunSnapshot("seq")
	if err != nil {
		t.Fatal(err)
	}
	if run.live != nil {
		t.Fatalf("failed swap committed a live index at v%d", run.live.Version())
	}
	if len(run.History) != 2 {
		t.Fatalf("failed swap left %d history entries", len(run.History))
	}

	body := pollSpec(t, ts, "seq", specSettled(3))
	history, err := srv.reg.historyReleases(run.History)
	if err != nil {
		t.Fatal(err)
	}
	oracle := &invarianceOracle{cfg: republish.Config{M: 2, ID: "name"}, history: history}
	want, ok, _, err := oracle.next(run.ds.table)
	if err != nil || !ok {
		t.Fatalf("cold restore: ok=%v err=%v", ok, err)
	}
	stored, err := srv.reg.releases.get(body["release_id"].(string))
	if err != nil {
		t.Fatal(err)
	}
	if stored.release.QIT.Fingerprint() != want.QIT.Fingerprint() || stored.release.ST.Fingerprint() != want.ST.Fingerprint() {
		t.Fatal("release after the dropped swap differs from a cold restore")
	}
	if run, _ = srv.reg.specRunSnapshot("seq"); run.live == nil || run.live.Version() != 3 {
		t.Fatal("the landed retry did not commit a v3 live index")
	}
}

// TestSpecTamperedHistoryRefusesToExtend damages a stored history table while
// the server is down. Boot does not read history tables, so the server
// starts; the next reconciliation has no live index, re-validates the stored
// chain, fails on the damaged snapshot and backs off without extending it.
func TestSpecTamperedHistoryRefusesToExtend(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 2,
		ReconcileBackoff: 5 * time.Millisecond, ReconcileBackoffMax: 50 * time.Millisecond}
	chunks := censusChunks(t, 200, 250, 300)
	ts, srv := bootSeqSpec(t, cfg, chunks[:2])
	run, err := srv.reg.specRunSnapshot("seq")
	if err != nil {
		t.Fatal(err)
	}
	before := pollSpec(t, ts, "seq", specSettled(2))
	ts.Close()
	srv.Close()

	path := filepath.Join(dir, "tables", run.History[0].QITFP+".tbl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64 && i < len(data); i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ts, _ = bootPersistent(t, cfg)
	if status, body := sendCSV(t, "POST", ts.URL+"/v1/datasets/pop/rows", chunks[2]); status != http.StatusOK {
		t.Fatalf("append: %d %v", status, body)
	}
	body := pollSpec(t, ts, "seq", func(b map[string]any) bool {
		retries, _ := b["retries"].(float64)
		return b["state"] == "backoff" && retries >= 2
	})
	if msg, _ := body["last_error"].(string); !strings.Contains(msg, "history v1 QIT") {
		t.Errorf("last_error = %q, want the damaged history table", msg)
	}
	if body["release_id"] != before["release_id"] || len(body["history"].([]any)) != 2 || body["reconciled_generation"] != float64(2) {
		t.Fatalf("tampered history extended: %v", body)
	}
}
