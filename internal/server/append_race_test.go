package server

import (
	"net/http"
	"slices"
	"sync"
	"testing"
)

// raceAppends uploads base as dataset "pop", then sends every chunk of adds
// as a row append at once, plus replace as a concurrent PUT when it is
// non-nil. It returns the "rows" field of every append response, in
// completion order, and fails the test on any non-success status.
func raceAppends(t *testing.T, srv *Server, url string, base []byte, adds [][]byte, replace []byte) []int {
	t.Helper()
	if status, body := sendCSV(t, "PUT", url+"/v1/datasets/pop?family=census", base); status != http.StatusCreated {
		t.Fatalf("upload: %d %v", status, body)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		rows []int
	)
	start := make(chan struct{})
	for i, chunk := range adds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, body, err := trySendCSV("POST", url+"/v1/datasets/pop/rows", chunk)
			if err != nil || status != http.StatusOK {
				t.Errorf("append %d: %d %v %v", i, status, body, err)
				return
			}
			n, _ := body["rows"].(float64)
			mu.Lock()
			rows = append(rows, int(n))
			mu.Unlock()
		}()
	}
	if replace != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			status, body, err := trySendCSV("PUT", url+"/v1/datasets/pop?family=census", replace)
			if err != nil || status != http.StatusCreated {
				t.Errorf("replace: %d %v %v", status, body, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ds, err := srv.reg.datasets.get("pop")
	if err != nil {
		t.Fatal(err)
	}
	writes := len(adds)
	if replace != nil {
		writes++
	}
	if want := uint64(1 + writes); ds.Generation != want {
		t.Errorf("generation = %d after %d acknowledged writes, want %d", ds.Generation, writes, want)
	}
	return rows
}

// appendChunks renders a 200-row census table, sixteen 10-row appends that
// follow it, and then one chunk ending at each of the extra bounds.
func appendChunks(t *testing.T, extra ...int) [][]byte {
	bounds := []int{200}
	for i := 1; i <= 16; i++ {
		bounds = append(bounds, 200+10*i)
	}
	return censusChunks(t, append(bounds, extra...)...)
}

// arithmetic reports whether sorted is first, first+step, first+2*step, ...
func arithmetic(sorted []int, first, step int) bool {
	for i, v := range sorted {
		if v != first+i*step {
			return false
		}
	}
	return true
}

// TestConcurrentAppendsLandOnce sends sixteen 10-row appends at once onto a
// 200-row dataset. Every acknowledged append must add its rows exactly once:
// each one builds on the generation before it, so the responses report 210,
// 220, ..., 360 rows in some order and the final table holds all 360.
func TestConcurrentAppendsLandOnce(t *testing.T) {
	ts, srv := newTestServer(t, Config{Workers: 2})
	chunks := appendChunks(t)
	rows := raceAppends(t, srv, ts.URL, chunks[0], chunks[1:], nil)
	slices.Sort(rows)
	if !arithmetic(rows, 210, 10) {
		t.Errorf("append responses report rows %v, want 210..360 step 10", rows)
	}
	ds, _ := srv.reg.datasets.get("pop")
	if ds.table.Len() != 360 {
		t.Errorf("final table holds %d rows, want 360", ds.table.Len())
	}
}

// TestReplaceRacingAppends races a PUT of a 105-row table against sixteen
// 10-row appends onto a 200-row dataset. An append acknowledged before the
// replace reports a multiple of 10 rows and is discarded by it; one after
// reports 105+10j rows and must survive. So the final table holds 105 rows
// plus 10 for every append that reported an odd count.
func TestReplaceRacingAppends(t *testing.T) {
	ts, srv := newTestServer(t, Config{Workers: 2})
	chunks := appendChunks(t, 465)
	rows := raceAppends(t, srv, ts.URL, chunks[0], chunks[1:17], chunks[17])
	slices.Sort(rows)
	var before, after []int
	for _, n := range rows {
		if n%10 == 5 {
			after = append(after, n)
		} else {
			before = append(before, n)
		}
	}
	if !arithmetic(before, 210, 10) || !arithmetic(after, 115, 10) {
		t.Errorf("append responses report rows %v: want 210, 220, ... before the replace and 115, 125, ... after it", rows)
	}
	ds, _ := srv.reg.datasets.get("pop")
	if want := 105 + 10*len(after); ds.table.Len() != want {
		t.Errorf("final table holds %d rows, want %d (%d appends after the replace)", ds.table.Len(), want, len(after))
	}
}
