package store

import (
	"fmt"
	"testing"

	"repro/internal/rel"
)

// BenchmarkSegmentReplay measures crash-recovery cost: journal a fixed
// workload once, then time Recover reconstructing the instance from the
// segments. Small MaxSegmentBytes forces a multi-segment journal per relation
// so the per-segment header/ordering machinery is on the measured path.
func BenchmarkSegmentReplay(b *testing.B) {
	const nRows = 5000
	dir := b.TempDir()
	d, err := Open(dir, Options{MaxSegmentBytes: 8 << 10})
	if err != nil {
		b.Fatal(err)
	}
	ins := rel.NewInstance()
	d.Attach(ins)
	for i := 0; i < nRows; i++ {
		ins.MustAdd("edge", fmt.Sprintf("n%05d", i), fmt.Sprintf("n%05d", (i*7)%nRows))
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}

	var tuples int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		recovered, recs, err := rd.Recover(0)
		if err != nil {
			b.Fatal(err)
		}
		if got := recovered.Relation("edge").Len(); got != nRows {
			b.Fatalf("recovered %d rows, want %d", got, nRows)
		}
		tuples = 0
		for _, rec := range recs {
			tuples += rec.Tuples
		}
		if err := rd.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tuples), "tuples-replayed")
	b.ReportMetric(float64(tuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}
