package server

import (
	"context"
	"testing"

	"cgp/internal/db"
	"cgp/internal/workload"
)

// BenchmarkExecutorStatements runs each kind of the drive mix through
// the executor in process, over cgpserve's default database (WiscN=2000
// in 8192 frames) with no network and no capture, so a change's
// per-kind cost shows without a serving benchmark run:
//
//	go test -run '^$' -bench BenchmarkExecutorStatements ./internal/server
func BenchmarkExecutorStatements(b *testing.B) {
	e := db.NewEngine(db.Options{BufferFrames: 8192})
	if err := (workload.WisconsinDB{N: 2000}).Load(e, 42); err != nil {
		b.Fatal(err)
	}
	x := New(e, Options{}).exec
	ctx := context.Background()
	for _, q := range DriveMix {
		b.Run(q.Kind, func(b *testing.B) {
			// The first run parses into the statement cache.
			if _, err := x.query(ctx, 0, q.SQL, 0, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := x.query(ctx, 0, q.SQL, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
