package server

import (
	"context"
	"encoding/binary"
	"io"
	"testing"
)

// BenchmarkServePipelinedFind drives one loopback connection at
// pipeline depth 16 — 16 Finds in one write, their 16 replies read back
// — and reports what a served request costs beside the store's own
// work: write calls per request (1/16 when replies share writes) and
// allocations per request (the client half here reuses its buffers, so
// allocs/op is the server's).
func BenchmarkServePipelinedFind(b *testing.B) {
	st, g := testStore(b)
	srv, addr := rawServer(b, st, nil)
	defer srv.Shutdown(context.Background())
	conn := dialRaw(b, addr)
	conn.SetDeadline(noDeadline)
	ids := g.NodeIDs()

	const depth = 16
	var out []byte
	for i := 0; i < depth; i++ {
		out = append(out, findFrame(uint32(i+1), ids[i*len(ids)/depth])...)
	}
	reply := make([]byte, 4096)
	round := func() {
		if _, err := conn.Write(out); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			if _, err := io.ReadFull(conn, reply[:4]); err != nil {
				b.Fatal(err)
			}
			n := binary.LittleEndian.Uint32(reply)
			if _, err := io.ReadFull(conn, reply[:n]); err != nil {
				b.Fatal(err)
			}
			if reply[4] != 0 {
				b.Fatalf("request %d failed with code %d", binary.LittleEndian.Uint32(reply), reply[4])
			}
		}
	}
	round() // connection set up, buffers grown
	writes := srv.writes.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += depth {
		round()
	}
	b.StopTimer()
	rounds := (b.N + depth - 1) / depth
	b.ReportMetric(float64(srv.writes.Value()-writes)/float64(rounds*depth), "writes/op")
}
