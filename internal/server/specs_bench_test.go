package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// BenchmarkReconcileRepublish measures one m-invariance reconciliation of a
// 10k-row census spec after a 50-row append — publish the next release from
// the spec's state, check it, swap it in — with the spec's history already
// 1 and 64 releases deep. The deep history is grown by 50-row appends from a
// smaller table, so both depths enter the timed loop at 10k rows and differ
// only in depth. The server runs without a data directory, so the numbers
// leave out snapshot writes and fsyncs; the per-op cost should not grow with
// the depth.
func BenchmarkReconcileRepublish(b *testing.B) {
	pol, err := policy.Parse([]byte(`{"criteria":[{"type":"m-invariance","m":2,"id":"name"}]}`))
	if err != nil {
		b.Fatal(err)
	}
	const base, batch = 10000, 50
	for _, depth := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			start := base - batch*(depth-1)
			pop := synth.Census(base+batch*b.N, 7)
			rows := func(lo, hi int) *dataset.Table {
				idx := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					idx = append(idx, i)
				}
				t, err := pop.Select(idx)
				if err != nil {
					b.Fatal(err)
				}
				return t
			}
			srv := New(Config{Workers: 1})
			defer srv.Close()
			cur := rows(0, start)
			if err := srv.AddDataset("pop", "census", cur, nil); err != nil {
				b.Fatal(err)
			}
			if err := srv.reg.putSpec(&storedSpec{name: "seq", specMeta: specMeta{Dataset: "pop",
				Algorithm: core.Algorithm("republish"), Policy: pol, CreatedUnix: time.Now().UnixNano()}}); err != nil {
				b.Fatal(err)
			}
			appendBatch := func(i int) {
				merged := cur.Clone()
				if err := merged.AppendTable(rows(start+batch*i, start+batch*(i+1))); err != nil {
					b.Fatal(err)
				}
				cur = merged
				if err := srv.reg.putDataset(&storedDataset{name: "pop", table: merged,
					datasetMeta: datasetMeta{Family: "census", CreatedUnix: time.Now().UnixNano()}}, true, nil, 0); err != nil {
					b.Fatal(err)
				}
			}
			reconcile := func() {
				if _, _, err := srv.reconcilePublish(context.Background(), "seq"); err != nil {
					b.Fatal(err)
				}
			}
			reconcile()
			for i := 0; i < depth-1; i++ {
				appendBatch(i)
				reconcile()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				appendBatch(depth - 1 + i)
				b.StartTimer()
				reconcile()
			}
		})
	}
}
