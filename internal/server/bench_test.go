package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
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

// BenchmarkServeJSONFind drives one keep-alive HTTP client POSTing
// /v1/find over loopback: what the JSON protocol costs per request.
// Client and server share the process, so allocs/op counts both halves.
func BenchmarkServeJSONFind(b *testing.B) {
	st, g := testStore(b)
	_, _, base := startServer(b, st, Options{})
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	url := base + "/v1/find"
	body := []byte(fmt.Sprintf(`{"id":%d}`, g.NodeIDs()[0]))
	round := func() {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("find: status %d, %v", resp.StatusCode, err)
		}
	}
	round() // connection set up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
